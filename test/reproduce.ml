(** Golden test of the paper's evaluation (Section 5) on the
    reconstructed medical workload.  Every number printed here is
    deterministic; dune compares stdout with [reproduce.expected], so a
    moved rate, line count or ratio, or a violated rate identity, fails
    [dune runtest].  [dune promote] accepts a deliberate change.

    - Figure 9: required bus transfer rate (Mbit/s) of every bus, for the
      three designs under the four implementation models, in the paper's
      bus layout (b1..b6), and the seven rate identities between models.
    - Figure 10: size of the refined specification (lines) and its growth
      over the original.
    - The derived claims: per-design model ranking by maximum bus rate,
      bus-count bounds per model.
    - Ablations: profiled vs uniform channel rates, four- vs two-phase
      handshake.
    - Fault campaigns: robustness and fault-free deltas, hardened vs
      unhardened.
    - Appendices: the same comparison on the elevator and FIR workloads. *)

open Workloads

let allocation = Designs.allocation

let graph = Medical.graph
let spec = Medical.spec

(* ------------------------------------------------------------------ *)
(* Figure 9: bus transfer rates                                        *)
(* ------------------------------------------------------------------ *)

type bus_cell = { cell_label : string; cell_rate : float }

(* Rates of the buses of one (design, model) pair, in the paper's column
   layout for p = 2.  Model4's three chain segments carry the same
   traffic, hence the single "b2=b3=b4" figure, exactly as printed in the
   paper's table. *)
let bus_rates design model =
  let part = design.Designs.d_partition in
  let env = Estimate.Rates.make_env spec allocation part in
  let plan = Core.Bus_plan.build model graph part in
  let rate edges = Estimate.Rates.bus_rate_mbps env edges in
  let find role =
    match
      List.find_opt
        (fun (b : Core.Bus_plan.bus) ->
          Core.Bus_plan.equal_role b.Core.Bus_plan.bus_role role)
        plan.Core.Bus_plan.bp_buses
    with
    | Some b -> rate b.Core.Bus_plan.bus_edges
    | None -> 0.0
  in
  match model with
  | Core.Model.Model1 ->
    [ { cell_label = "b1"; cell_rate = find Core.Bus_plan.Shared_global } ]
  | Core.Model.Model2 ->
    [
      { cell_label = "b1"; cell_rate = find (Core.Bus_plan.Local 0) };
      { cell_label = "b2"; cell_rate = find Core.Bus_plan.Shared_global };
      { cell_label = "b3"; cell_rate = find (Core.Bus_plan.Local 1) };
    ]
  | Core.Model.Model3 ->
    [
      { cell_label = "b1"; cell_rate = find (Core.Bus_plan.Local 0) };
      { cell_label = "b2";
        cell_rate = find (Core.Bus_plan.Dedicated { master = 0; mem = 0 }) };
      { cell_label = "b3";
        cell_rate = find (Core.Bus_plan.Dedicated { master = 0; mem = 1 }) };
      { cell_label = "b4";
        cell_rate = find (Core.Bus_plan.Dedicated { master = 1; mem = 1 }) };
      { cell_label = "b5";
        cell_rate = find (Core.Bus_plan.Dedicated { master = 1; mem = 0 }) };
      { cell_label = "b6"; cell_rate = find (Core.Bus_plan.Local 1) };
    ]
  | Core.Model.Model4 ->
    [
      { cell_label = "b1"; cell_rate = find (Core.Bus_plan.Local 0) };
      { cell_label = "b2=b3=b4"; cell_rate = find Core.Bus_plan.Chain_inter };
      { cell_label = "b5"; cell_rate = find (Core.Bus_plan.Local 1) };
    ]

let fmt_rates cells =
  String.concat ", "
    (List.map (fun c -> Printf.sprintf "%.0f" c.cell_rate) cells)

let figure9 () =
  print_endline "";
  print_endline
    "== Figure 9: bus transfer rates (Mbit/s) in three designs, four models ==";
  Printf.printf "%-22s | %-9s | %-22s | %-38s | %-18s\n" "Design" "Model1 b1"
    "Model2 b1,b2,b3" "Model3 b1,b2,b3,b4,b5,b6" "Model4 b1,b2=b3=b4,b5";
  List.iter
    (fun d ->
      Printf.printf "%-22s | %-9s | %-22s | %-38s | %-18s\n"
        (d.Designs.d_name ^ " " ^ d.Designs.d_description)
        (fmt_rates (bus_rates d Core.Model.Model1))
        (fmt_rates (bus_rates d Core.Model.Model2))
        (fmt_rates (bus_rates d Core.Model.Model3))
        (fmt_rates (bus_rates d Core.Model.Model4)))
    Designs.all

(* Structural identities the paper's table obeys (up to rounding); the
   golden holds every one as "ok". *)
let identities () =
  print_endline "";
  print_endline "== Rate identities (consistency of the four models) ==";
  List.iter
    (fun d ->
      let get m = bus_rates d m in
      let m1 = get Core.Model.Model1 and m2 = get Core.Model.Model2 in
      let m3 = get Core.Model.Model3 and m4 = get Core.Model.Model4 in
      let r cells i = (List.nth cells i).cell_rate in
      let close a b = Float.abs (a -. b) < 1e-6 *. (1.0 +. Float.abs a) in
      let checks =
        [
          ("M1.b1 = M2.b1+b2+b3", close (r m1 0) (r m2 0 +. r m2 1 +. r m2 2));
          ( "M2.b2 = M3.b2+b3+b4+b5",
            close (r m2 1) (r m3 1 +. r m3 2 +. r m3 3 +. r m3 4) );
          ("M2.b1 = M3.b1", close (r m2 0) (r m3 0));
          ("M2.b3 = M3.b6", close (r m2 2) (r m3 5));
          ("M4.b1 = M3.b1+b2", close (r m4 0) (r m3 0 +. r m3 1));
          ("M4.b5 = M3.b6+b4", close (r m4 2) (r m3 5 +. r m3 3));
          ("M4.chain = M3.b3+b5", close (r m4 1) (r m3 2 +. r m3 4));
        ]
      in
      Printf.printf "%-10s %s\n" d.Designs.d_name
        (String.concat "  "
           (List.map
              (fun (name, ok) ->
                Printf.sprintf "[%s %s]" name (if ok then "ok" else "VIOLATED"))
              checks)))
    Designs.all

(* ------------------------------------------------------------------ *)
(* Figure 10: refined size                                             *)
(* ------------------------------------------------------------------ *)

let figure10 () =
  print_endline "";
  print_endline
    "== Figure 10: lines of refined specification ==";
  let original_lines = Spec.Printer.line_count spec in
  Printf.printf "original specification: %d lines\n" original_lines;
  Printf.printf "%-22s" "Design";
  List.iter (fun m -> Printf.printf " | %-7s" (Core.Model.name m)) Core.Model.all;
  print_newline ();
  List.iter
    (fun d ->
      Printf.printf "%-22s" (d.Designs.d_name ^ " " ^ d.Designs.d_description);
      List.iter
        (fun m ->
          let refined = Core.Refiner.refine spec graph d.Designs.d_partition m in
          Printf.printf " | %4d ln"
            (Spec.Printer.line_count refined.Core.Refiner.rf_program))
        Core.Model.all;
      print_newline ())
    Designs.all;
  print_endline "";
  print_endline "-- growth ratio (refined / original lines) --";
  List.iter
    (fun d ->
      Printf.printf "%-10s" d.Designs.d_name;
      List.iter
        (fun m ->
          let refined = Core.Refiner.refine spec graph d.Designs.d_partition m in
          Printf.printf "  %s=%.1fx" (Core.Model.name m)
            (Core.Metrics.growth ~original:spec
               ~refined:refined.Core.Refiner.rf_program))
        Core.Model.all;
      print_newline ())
    Designs.all

(* ------------------------------------------------------------------ *)
(* Model ranking per design (the paper's qualitative conclusions)      *)
(* ------------------------------------------------------------------ *)

let max_rate cells =
  List.fold_left (fun acc c -> Float.max acc c.cell_rate) 0.0 cells

let winners () =
  print_endline "";
  print_endline
    "== Model ranking by maximum required bus rate (lower is better) ==";
  List.iter
    (fun d ->
      let scored =
        List.map (fun m -> (m, max_rate (bus_rates d m))) Core.Model.all
      in
      let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) scored in
      Printf.printf "%-10s %s\n"
        (d.Designs.d_name ^ ":")
        (String.concat " < "
           (List.map
              (fun (m, r) -> Printf.sprintf "%s(%.0f)" (Core.Model.name m) r)
              sorted)))
    Designs.all

(* ------------------------------------------------------------------ *)
(* Bus-count sweep: instantiated buses vs the Section 3 bounds          *)
(* ------------------------------------------------------------------ *)

let bus_count_sweep () =
  print_endline "";
  print_endline
    "== Bus-count sweep: instantiated buses vs model bound (p partitions) ==";
  Printf.printf "%-4s" "p";
  List.iter
    (fun m -> Printf.printf " | %s used/bound" (Core.Model.name m))
    Core.Model.all;
  print_newline ();
  List.iter
    (fun p ->
      let cfg =
        {
          Generator.default_config with
          gen_seed = 100 + p;
          gen_vars = 4 * p;
          gen_leaves = 4 * p;
        }
      in
      let prog = Generator.program cfg in
      let g = Agraph.Access_graph.of_program prog in
      let part = Generator.random_partition ~seed:p g ~n_parts:p in
      Printf.printf "%-4d" p;
      List.iter
        (fun m ->
          let r = Core.Refiner.refine prog g part m in
          Printf.printf " | %2d/%-2d              "
            (List.length r.Core.Refiner.rf_buses)
            (Core.Model.max_buses m ~p))
        Core.Model.all;
      print_newline ())
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Ablation: profiled vs uniform channel rates                         *)
(* ------------------------------------------------------------------ *)

let ablation_rates () =
  print_endline "";
  print_endline
    "== Ablation: model ranking under profiled vs uniform channel counts ==";
  let ranking graph' =
    List.map
      (fun d ->
        let part = d.Designs.d_partition in
        let env = Estimate.Rates.make_env spec allocation part in
        let score m =
          let plan = Core.Bus_plan.build m graph' part in
          List.fold_left
            (fun acc (b : Core.Bus_plan.bus) ->
              Float.max acc
                (Estimate.Rates.bus_rate_mbps env b.Core.Bus_plan.bus_edges))
            0.0 plan.Core.Bus_plan.bp_buses
        in
        let sorted =
          List.sort (fun a b -> Float.compare (score a) (score b)) Core.Model.all
        in
        (d.Designs.d_name, List.map Core.Model.name sorted))
      Designs.all
  in
  let profiled = ranking graph in
  let uniform =
    ranking (Agraph.Access_graph.of_program ~while_iterations:1 spec)
  in
  List.iter2
    (fun (d, rp) (_, ru) ->
      Printf.printf "%-10s profiled: %-35s uniform: %-35s %s\n" d
        (String.concat " < " rp)
        (String.concat " < " ru)
        (if rp = ru then "(same)" else "(differs)"))
    profiled uniform

(* ------------------------------------------------------------------ *)
(* Ablation: four-phase vs two-phase bus protocol                      *)
(* ------------------------------------------------------------------ *)

let ablation_protocol () =
  print_endline "";
  print_endline
    "== Ablation: four-phase (Fig 5d) vs two-phase handshake (simulated deltas) ==";
  List.iter
    (fun d ->
      Printf.printf "%-10s" d.Designs.d_name;
      List.iter
        (fun m ->
          let deltas protocol =
            let options = { Core.Refiner.default_options with protocol } in
            let r =
              Core.Refiner.refine ~options spec graph d.Designs.d_partition m
            in
            (Sim.Engine.run r.Core.Refiner.rf_program).Sim.Engine.r_deltas
          in
          let four = deltas Core.Protocol.Four_phase in
          let two = deltas Core.Protocol.Two_phase in
          Printf.printf "  %s: %d -> %d (%.2fx)" (Core.Model.name m) four two
            (float_of_int four /. float_of_int (max 1 two)))
        Core.Model.all;
      print_newline ())
    Designs.all

(* ------------------------------------------------------------------ *)
(* Fault campaigns: survival under injection, hardened vs unhardened    *)
(* ------------------------------------------------------------------ *)

let faults () =
  print_endline "";
  print_endline
    "== Faults: campaign robustness and cost of hardening (2 seeds/class) ==";
  let config =
    { Faults.Campaign.default_config with Faults.Campaign.cf_seeds = 2 }
  in
  let part = (List.hd Designs.all).Designs.d_partition in
  List.iter
    (fun m ->
      let campaign harden =
        let options = { Core.Refiner.default_options with harden } in
        let r = Core.Refiner.refine ~options spec graph part m in
        let deltas =
          (Sim.Engine.run r.Core.Refiner.rf_program).Sim.Engine.r_deltas
        in
        (Faults.Campaign.run ~config r, deltas)
      in
      let plain, d_plain = campaign false in
      let hard, d_hard = campaign true in
      Printf.printf
        "%-7s robustness %.3f -> %.3f  fault-free deltas %d -> %d (%.2fx)\n"
        (Core.Model.name m) plain.Faults.Campaign.rp_robustness
        hard.Faults.Campaign.rp_robustness d_plain d_hard
        (float_of_int d_hard /. float_of_int (max 1 d_plain)))
    Core.Model.all

(* ------------------------------------------------------------------ *)
(* Appendix: the same comparison on a second workload                  *)
(* ------------------------------------------------------------------ *)

let workload_appendix name spec graph part =
  print_endline "";
  Printf.printf "== Appendix: %s, same comparison ==\n" name;
  let env = Estimate.Rates.make_env spec allocation part in
  let report = Partitioning.Classify.report part in
  Printf.printf
    "%s: %d lines, %d channels, %d local / %d global variables\n" name
    (Spec.Printer.line_count spec)
    (Agraph.Access_graph.channel_count graph)
    (List.length report.Partitioning.Classify.locals)
    (List.length report.Partitioning.Classify.globals);
  List.iter
    (fun m ->
      let plan = Core.Bus_plan.build m graph part in
      let rates =
        List.filter_map
          (fun (b : Core.Bus_plan.bus) ->
            match b.Core.Bus_plan.bus_edges with
            | [] -> None
            | edges ->
              Some
                (Printf.sprintf "%s=%.0f"
                   (Core.Bus_plan.role_label b.Core.Bus_plan.bus_role)
                   (Estimate.Rates.bus_rate_mbps env edges)))
          plan.Core.Bus_plan.bp_buses
      in
      let refined = Core.Refiner.refine spec graph part m in
      Printf.printf "  %-7s %4d lines  rates [%s]\n" (Core.Model.name m)
        (Spec.Printer.line_count refined.Core.Refiner.rf_program)
        (String.concat ", " rates))
    Core.Model.all

let () =
  Printf.printf
    "Model Refinement for Hardware-Software Codesign — benchmark harness\n";
  Printf.printf
    "(workload: reconstructed medical system, %d behaviors / %d variables / %d channels)\n"
    (List.length Medical.leaf_names)
    (List.length Medical.variable_names)
    (Agraph.Access_graph.channel_count graph);
  figure9 ();
  identities ();
  figure10 ();
  winners ();
  bus_count_sweep ();
  ablation_rates ();
  ablation_protocol ();
  faults ();
  workload_appendix "elevator controller" Elevator.spec Elevator.graph
    Elevator.partition;
  workload_appendix "4-tap FIR filter (arrays)" Fir.spec Fir.graph
    Fir.partition;
  print_endline "";
  print_endline "done."
