(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Section 5) on the reconstructed medical workload.

    - Figure 9: required bus transfer rate (Mbit/s) of every bus, for the
      three designs under the four implementation models, in the paper's
      bus layout (b1..b6).
    - Figure 10: size of the refined specification (lines) and the CPU
      time of the refinement.
    - The derived claims: specification growth ratio, per-design model
      ranking by maximum bus rate, bus-count bounds per model.
    - Ablation: profiled vs uniform channel rates.
    - Design-space exploration throughput: candidates evaluated per
      second at 1 vs N domains, and the memoization hit rate of a
      repeated sweep.
    - Bechamel micro-benchmarks of the refiner, the access-graph
      derivation, the partitioners and the simulator. *)

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

(* Structural identities the paper's table obeys (up to rounding); we
   print them as a self-check. *)
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
(* Figure 10: refined size and refinement CPU time                     *)
(* ------------------------------------------------------------------ *)

let time_of f =
  (* Median CPU time of several runs, in milliseconds. *)
  let runs = 5 in
  let samples =
    List.init runs (fun _ ->
        let t0 = Sys.time () in
        ignore (Sys.opaque_identity (f ()));
        (Sys.time () -. t0) *. 1000.0)
  in
  List.nth (List.sort compare samples) (runs / 2)

let figure10 () =
  print_endline "";
  print_endline
    "== Figure 10: lines of refined specification / refinement CPU time ==";
  let original_lines = Spec.Printer.line_count spec in
  Printf.printf "original specification: %d lines\n" original_lines;
  Printf.printf "%-22s" "Design";
  List.iter (fun m -> Printf.printf " | %-16s" (Core.Model.name m)) Core.Model.all;
  print_newline ();
  List.iter
    (fun d ->
      Printf.printf "%-22s" (d.Designs.d_name ^ " " ^ d.Designs.d_description);
      List.iter
        (fun m ->
          let refined = Core.Refiner.refine spec graph d.Designs.d_partition m in
          let lines = Spec.Printer.line_count refined.Core.Refiner.rf_program in
          let ms =
            time_of (fun () ->
                Core.Refiner.refine spec graph d.Designs.d_partition m)
          in
          Printf.printf " | %4d ln %6.2fms" lines ms)
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
(* Design-space exploration: parallel throughput and cache hit rate    *)
(* ------------------------------------------------------------------ *)

let explore_bench () =
  print_endline "";
  print_endline
    "== Explore: candidates/second at 1 vs N domains, cache hit rate ==";
  let config =
    {
      Explore.Sweep.default_config with
      Explore.Sweep.seeds = [ 1; 2; 3 ];
      steps = 1500;
    }
  in
  let n_candidates =
    List.length
      (Explore.Candidate.enumerate ~n_parts:config.Explore.Sweep.n_parts
         ~steps:config.Explore.Sweep.steps ~seeds:config.Explore.Sweep.seeds
         ~models:config.Explore.Sweep.models ())
  in
  let sweep_at ?cache jobs =
    let t0 = Unix.gettimeofday () in
    let sw =
      Explore.Sweep.run ?cache { config with Explore.Sweep.jobs } spec
    in
    let dt = Unix.gettimeofday () -. t0 in
    (sw, dt)
  in
  let report label (sw, dt) =
    Printf.printf
      "%-24s %5.2fs  %6.1f candidates/s  cache %d hits / %d misses\n" label dt
      (float_of_int (List.length sw.Explore.Sweep.sw_results) /. dt)
      sw.Explore.Sweep.sw_hits sw.Explore.Sweep.sw_misses
  in
  Printf.printf "candidate space: %d candidates (3 seeds x 3 biases x 4 models)\n"
    n_candidates;
  let cold1 = sweep_at 1 in
  report "cold, --jobs 1" cold1;
  let cold4 = sweep_at 4 in
  report "cold, --jobs 4" cold4;
  let sw1, dt1 = cold1 and sw4, dt4 = cold4 in
  Printf.printf "speedup (1 -> 4 domains): %.2fx on %d cores\n" (dt1 /. dt4)
    (Explore.Pool.default_jobs ());
  (* Repeated sweep through one shared cache: the annealing re-runs but
     every refine->check->quality tail must hit. *)
  let cache = Explore.Cache.create () in
  let _warm = Explore.Sweep.run ~cache config spec in
  Explore.Cache.reset_stats cache;
  let repeat, _ = sweep_at ~cache 1 in
  Printf.printf "repeated sweep hit rate: %.0f%% (%d hits / %d misses)\n"
    (100.0
    *. float_of_int repeat.Explore.Sweep.sw_hits
    /. float_of_int
         (max 1 (repeat.Explore.Sweep.sw_hits + repeat.Explore.Sweep.sw_misses)))
    repeat.Explore.Sweep.sw_hits repeat.Explore.Sweep.sw_misses;
  (* Determinism spot-check: the frontiers at 1 and 4 domains agree. *)
  let labels sw =
    List.map
      (fun (r : Explore.Evaluate.result) ->
        Explore.Candidate.label r.Explore.Evaluate.r_candidate)
      sw.Explore.Sweep.sw_frontier
  in
  Printf.printf "frontiers identical across domain counts: %b\n"
    (labels sw1 = labels sw4)

(* ------------------------------------------------------------------ *)
(* Fault campaigns: survival under injection, hardened vs unhardened    *)
(* ------------------------------------------------------------------ *)

let faults_bench () =
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
        let t0 = Unix.gettimeofday () in
        let report = Faults.Campaign.run ~config r in
        (report, deltas, Unix.gettimeofday () -. t0)
      in
      let plain, d_plain, t_plain = campaign false in
      let hard, d_hard, t_hard = campaign true in
      Printf.printf
        "%-7s robustness %.3f -> %.3f  fault-free deltas %d -> %d (%.2fx)  \
         campaign %.2fs -> %.2fs\n"
        (Core.Model.name m) plain.Faults.Campaign.rp_robustness
        hard.Faults.Campaign.rp_robustness d_plain d_hard
        (float_of_int d_hard /. float_of_int (max 1 d_plain))
        t_plain t_hard)
    Core.Model.all

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let refine_tests =
    List.concat_map
      (fun d ->
        List.map
          (fun m ->
            Test.make
              ~name:
                (Printf.sprintf "refine/%s/%s" d.Designs.d_name
                   (Core.Model.name m))
              (Staged.stage (fun () ->
                   Core.Refiner.refine spec graph d.Designs.d_partition m)))
          Core.Model.all)
      Designs.all
  in
  let other_tests =
    [
      Test.make ~name:"graph/medical"
        (Staged.stage (fun () -> Agraph.Access_graph.of_program spec));
      Test.make ~name:"partition/greedy"
        (Staged.stage (fun () -> Partitioning.Greedy.run graph ~n_parts:2));
      Test.make ~name:"partition/kl"
        (Staged.stage (fun () ->
             Partitioning.Kl.run_from_scratch graph ~n_parts:2));
      Test.make ~name:"partition/clustering"
        (Staged.stage (fun () -> Partitioning.Clustering.run graph ~n_parts:2));
      Test.make ~name:"partition/annealing"
        (Staged.stage (fun () ->
             Partitioning.Annealing.run
               ~config:{ Partitioning.Annealing.default_config with steps = 500 }
               graph ~n_parts:2));
      Test.make ~name:"simulate/original"
        (Staged.stage (fun () -> Sim.Engine.run spec));
      Test.make ~name:"simulate/refined-m2"
        (let refined =
           Core.Refiner.refine spec graph Designs.design1.Designs.d_partition
             Core.Model.Model2
         in
         Staged.stage (fun () -> Sim.Engine.run refined.Core.Refiner.rf_program));
      Test.make ~name:"simulate/refined-m2-polling"
        (let refined =
           Core.Refiner.refine spec graph Designs.design1.Designs.d_partition
             Core.Model.Model2
         in
         Staged.stage (fun () ->
             Sim.Reference.run refined.Core.Refiner.rf_program));
      Test.make ~name:"print/refined-m4"
        (let refined =
           Core.Refiner.refine spec graph Designs.design3.Designs.d_partition
             Core.Model.Model4
         in
         Staged.stage (fun () ->
             Spec.Printer.program_to_string refined.Core.Refiner.rf_program));
      Test.make ~name:"parse/medical"
        (let text = Spec.Printer.program_to_string spec in
         Staged.stage (fun () -> Spec.Parser.program_of_string_exn text));
    ]
  in
  Test.make_grouped ~name:"coref" (refine_tests @ other_tests)

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "";
  print_endline "== Bechamel micro-benchmarks (time per run) ==";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> est
          | Some _ | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e6 then Printf.printf "%-32s %10.3f ms/run\n" name (ns /. 1e6)
      else Printf.printf "%-32s %10.3f us/run\n" name (ns /. 1e3))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* Appendix: the same comparison on a second workload                  *)
(* ------------------------------------------------------------------ *)

let workload_appendix name spec graph part =
  print_endline "";
  Printf.printf "== Appendix: %s, same comparison ==\n" name;
  let env = Estimate.Rates.make_env spec allocation part in
  let report = Partitioning.Classify.report graph part in
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

(* ------------------------------------------------------------------ *)
(* --json: the simulation-kernel benchmark, machine-readable            *)
(* ------------------------------------------------------------------ *)

(* A compact perf snapshot (BENCH_sim.json) tracking the event-driven
   kernel against the retained polling kernel: per-run simulation time,
   fault-campaign wall clock, and explore-sweep throughput.  CI uploads
   it on every run so the trajectory is visible across PRs. *)

(* Per-run wall time in microseconds: warm up (which also primes the
   engine's session cache, the steady state every real caller sees),
   then amortize over enough runs to dwarf timer noise. *)
let us_per_run f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.3 do
    ignore (Sys.opaque_identity (f ()));
    incr n
  done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (max 1 !n)

let seconds_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let bench_json out_path =
  (* -- simulate: both kernels on the same programs ------------------- *)
  let refined m =
    (Core.Refiner.refine spec graph Designs.design1.Designs.d_partition m)
      .Core.Refiner.rf_program
  in
  let sim_cases =
    [
      ("original", spec);
      ("refined-m2", refined Core.Model.Model2);
      ("refined-m4", refined Core.Model.Model4);
    ]
  in
  let sim_identical = ref true in
  let sim_rows =
    List.map
      (fun (name, p) ->
        (* Gate before timing: one fully traced run must be bit-identical
           between the engine (VM leaves) and the polling oracle
           (tree-walking leaves), or the benchmark exits nonzero — a fast
           kernel that drifts observably is a regression, not a win. *)
        let traced =
          { Sim.Engine.default_config with Sim.Engine.trace_signals = true }
        in
        let same =
          Sim.Engine.run ~config:traced p = Sim.Reference.run ~config:traced p
        in
        if not same then sim_identical := false;
        let engine_vm = us_per_run (fun () -> Sim.Engine.run p) in
        let polling = us_per_run (fun () -> Sim.Reference.run p) in
        Printf.printf
          "simulate/%-12s vm %8.1f us  polling %8.1f us  (%.2fx)  \
           observables %s\n"
          name engine_vm polling (polling /. engine_vm)
          (if same then "identical" else "DIVERGED");
        Printf.sprintf
          "{\"name\":\"%s\",\"engine_vm_us\":%.1f,\"engine_us\":%.1f,\
           \"polling_us\":%.1f,\"speedup\":%.2f,\
           \"observables_identical\":%b}"
          name engine_vm engine_vm polling (polling /. engine_vm) same)
      sim_cases
  in
  let sim_identical = !sim_identical in
  (* -- lint: full registry sweep, flow-insensitive vs flow-sensitive -- *)
  let lint_rows =
    List.map
      (fun (name, p) ->
        let row flow =
          let n = List.length (Lint.Registry.run ~flow p) in
          (* The flow summary cache is primed by the warm-up runs, so
             this measures the steady state a serve daemon or repeated
             CLI sweep sees. *)
          let us = us_per_run (fun () -> Lint.Registry.run ~flow p) in
          (n, us, float_of_int n /. us *. 1e6)
        in
        let off_n, off_us, off_rate = row false in
        let on_n, on_us, on_rate = row true in
        Printf.printf
          "lint/%-15s flow off %8.1f us (%d diags, %7.0f/s)  flow on \
           %8.1f us (%d diags, %7.0f/s)\n"
          name off_us off_n off_rate on_us on_n on_rate;
        Printf.sprintf
          "{\"name\":\"%s\",\"flow_off_us\":%.1f,\"flow_off_diags\":%d,\
           \"flow_off_diags_per_s\":%.0f,\"flow_on_us\":%.1f,\
           \"flow_on_diags\":%d,\"flow_on_diags_per_s\":%.0f}"
          name off_us off_n off_rate on_us on_n on_rate)
      [ ("medical", spec); ("refined-m2", refined Core.Model.Model2) ]
  in
  (* -- faults: the mrefine-faults campaign under both kernels -------- *)
  let fault_config =
    { Faults.Campaign.default_config with Faults.Campaign.cf_seeds = 4 }
  in
  let fault_design =
    Core.Refiner.refine spec graph Designs.design1.Designs.d_partition
      Core.Model.Model2
  in
  let engine_report, engine_s =
    seconds_of (fun () -> Faults.Campaign.run ~config:fault_config fault_design)
  in
  let polling_report, polling_s =
    seconds_of (fun () ->
        Faults.Campaign.run ~config:fault_config
          ~simulate:(fun ~config ~hooks ?ordering p ->
            Sim.Reference.run ~config ~hooks ?ordering p)
          fault_design)
  in
  let classifications rp =
    List.map
      (fun rn ->
        (rn.Faults.Campaign.run_seed, rn.Faults.Campaign.run_class,
         rn.Faults.Campaign.run_outcome))
      rp.Faults.Campaign.rp_runs
  in
  let match_ok = classifications engine_report = classifications polling_report in
  Printf.printf
    "faults/medical-m2    engine %6.2f s   polling %6.2f s   (%.2fx)  \
     classifications %s\n"
    engine_s polling_s (polling_s /. engine_s)
    (if match_ok then "identical" else "DIVERGED");
  let faults_row =
    Printf.sprintf
      "{\"workload\":\"medical\",\"model\":\"model2\",\"seeds\":%d,\
       \"engine_s\":%.3f,\"polling_s\":%.3f,\"speedup\":%.2f,\
       \"robustness\":%.3f,\"classifications_match\":%b}"
      fault_config.Faults.Campaign.cf_seeds engine_s polling_s
      (polling_s /. engine_s)
      engine_report.Faults.Campaign.rp_robustness match_ok
  in
  (* -- explore: sweep throughput (simulation-bound via cosim/quality) -- *)
  let explore_config =
    {
      Explore.Sweep.default_config with
      Explore.Sweep.seeds = [ 1; 2 ];
      steps = 800;
      jobs = 1;
    }
  in
  let cache = Explore.Cache.create () in
  let cold, cold_s =
    seconds_of (fun () -> Explore.Sweep.run ~cache explore_config spec)
  in
  Explore.Cache.reset_stats cache;
  let warm, _ = seconds_of (fun () -> Explore.Sweep.run ~cache explore_config spec) in
  let n_results = List.length cold.Explore.Sweep.sw_results in
  let hit_rate =
    float_of_int warm.Explore.Sweep.sw_hits
    /. float_of_int
         (max 1 (warm.Explore.Sweep.sw_hits + warm.Explore.Sweep.sw_misses))
  in
  Printf.printf
    "explore/medical      cold %6.2f s  (%.1f candidates/s)  warm hit rate \
     %.0f%%\n"
    cold_s
    (float_of_int n_results /. cold_s)
    (100.0 *. hit_rate);
  let explore_row =
    Printf.sprintf
      "{\"seeds\":[1,2],\"steps\":%d,\"candidates\":%d,\"cold_s\":%.3f,\
       \"candidates_per_s\":%.1f,\"warm_hit_rate\":%.3f}"
      explore_config.Explore.Sweep.steps n_results cold_s
      (float_of_int n_results /. cold_s)
      hit_rate
  in
  (* -- checkpoint: fsynced journal append and replay throughput ------- *)
  let checkpoint_row =
    let dir = Filename.temp_file "coref_bench_journal" ".d" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let path = Filename.concat dir "bench.journal" in
    let meta = Checkpoint.Journal.meta_digest [ "bench-journal" ] in
    let blob = String.make 256 'x' in
    let n = 200 in
    let j = Checkpoint.Journal.open_ ~path ~meta in
    let (), append_s =
      seconds_of (fun () ->
          for i = 1 to n do
            Checkpoint.Journal.append j ~key:(Printf.sprintf "k%d" i) blob
          done)
    in
    Checkpoint.Journal.close j;
    let replayed, replay_s =
      seconds_of (fun () ->
          let j = Checkpoint.Journal.open_ ~path ~meta in
          let n = Checkpoint.Journal.length j in
          Checkpoint.Journal.close j;
          n)
    in
    Printf.printf
      "checkpoint/journal   %d fsynced appends %6.2f s (%.0f/s)  replay \
       %6.3f s  (%d entries)\n"
      n append_s
      (float_of_int n /. append_s)
      replay_s replayed;
    Printf.sprintf
      "{\"appends\":%d,\"append_s\":%.3f,\"appends_per_s\":%.0f,\
       \"replay_s\":%.3f,\"replayed\":%d}"
      n append_s
      (float_of_int n /. append_s)
      replay_s replayed
  in
  (* -- litmus: the weak-memory suite across orderings, both kernels --- *)
  let litmus_row, litmus_ok =
    let cfg = Litmus.Suite.default_config () in
    let rp, suite_s = seconds_of (fun () -> Litmus.Suite.run cfg) in
    let n = List.length rp.Litmus.Suite.rp_entries in
    let ok =
      rp.Litmus.Suite.rp_forbidden = 0
      && rp.Litmus.Suite.rp_corruption = 0
      && rp.Litmus.Suite.rp_kernel_mismatches = 0
    in
    Printf.printf
      "litmus/suite         %d entries %6.2f s (%.0f runs/s, both kernels)  \
       %d weak-allowed  %s\n"
      n suite_s
      (float_of_int n /. suite_s)
      rp.Litmus.Suite.rp_weak_allowed
      (if ok then "clean" else "BROKEN");
    ( Printf.sprintf
        "{\"entries\":%d,\"suite_s\":%.3f,\"runs_per_s\":%.0f,\
         \"sc_consistent\":%d,\"weak_allowed\":%d,\"forbidden\":%d,\
         \"deadlock\":%d,\"corruption\":%d,\"kernel_mismatches\":%d}"
        n suite_s
        (float_of_int n /. suite_s)
        rp.Litmus.Suite.rp_sc_consistent rp.Litmus.Suite.rp_weak_allowed
        rp.Litmus.Suite.rp_forbidden rp.Litmus.Suite.rp_deadlock
        rp.Litmus.Suite.rp_corruption rp.Litmus.Suite.rp_kernel_mismatches,
      ok )
  in
  (* -- serve: warm daemon requests vs cold CLI invocations ----------- *)
  let serve_row, serve_identical =
    let write_file path text =
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc
    in
    let read_file path =
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      text
    in
    let percentile_ms p lats =
      let a = Array.of_list lats in
      Array.sort compare a;
      let n = Array.length a in
      1e3 *. a.(max 0 (min (n - 1) (int_of_float (p *. float_of_int (n - 1)))))
    in
    let mean lats =
      List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats)
    in
    let spec_text = Spec.Printer.program_to_string spec in
    let spec_file = Filename.temp_file "coref_bench_spec" ".sc" in
    write_file spec_file spec_text;
    (* Cold: one full CLI process per request, the pre-daemon baseline. *)
    let mrefine =
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/mrefine.exe"
    in
    let out_file = Filename.temp_file "coref_bench_refined" ".sc" in
    let cold_cmd =
      Printf.sprintf "%s refine -q -p 2 %s > %s" (Filename.quote mrefine)
        (Filename.quote spec_file) (Filename.quote out_file)
    in
    let cold_once () =
      if Sys.command cold_cmd <> 0 then failwith "bench: cold mrefine failed"
    in
    let n_cold = 8 and n_warm = 64 in
    let cold_lats =
      List.init n_cold (fun _ -> snd (seconds_of cold_once))
    in
    let cold_output = read_file out_file in
    (* Warm: the same request served over a socket by a live daemon with
       its elaboration and result caches hot. *)
    let session = Serve.Session.create () in
    let scheduler = Serve.Scheduler.create session in
    let socket = Filename.temp_file "coref_bench_serve" ".sock" in
    Sys.remove socket;
    let server =
      Serve.Server.start
        ~listen:(Serve.Server.Tcp { host = "127.0.0.1"; port = 0 })
        ~socket scheduler
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    let conn_in = Unix.in_channel_of_descr fd in
    let conn_out = Unix.out_channel_of_descr fd in
    let roundtrip_on conn_in conn_out line =
      output_string conn_out line;
      output_char conn_out '\n';
      flush conn_out;
      match Serve.Protocol.parse (input_line conn_in) with
      | Ok j -> j
      | Error msg -> failwith ("bench: bad serve reply: " ^ msg)
    in
    let roundtrip = roundtrip_on conn_in conn_out in
    let submit_line =
      Serve.Protocol.to_string
        (Serve.Protocol.Obj
           [
             ("op", Serve.Protocol.String "submit");
             ( "job",
               Serve.Protocol.Obj
                 [
                   ("kind", Serve.Protocol.String "refine");
                   ("spec", Serve.Protocol.String spec_text);
                   ("parts", Serve.Protocol.Int 2);
                 ] );
           ])
    in
    let field name reply =
      match Serve.Protocol.string_field name reply with
      | Ok v -> v
      | Error _ -> failwith ("bench: serve reply missing " ^ name)
    in
    let request_on roundtrip () =
      let id = field "id" (roundtrip submit_line) in
      let result =
        roundtrip
          (Serve.Protocol.to_string
             (Serve.Protocol.Obj
                [
                  ("op", Serve.Protocol.String "result");
                  ("id", Serve.Protocol.String id);
                  ("wait", Serve.Protocol.Bool true);
                ]))
      in
      if field "state" result <> "done" then
        failwith ("bench: served job not done: " ^ field "state" result);
      field "output" result
    in
    let request = request_on roundtrip in
    ignore (request ());
    (* prime the daemon's caches *)
    let warm = List.init n_warm (fun _ -> seconds_of request) in
    let warm_output = fst (List.hd warm) in
    let warm_lats = List.map snd warm in
    (* Warm over TCP: the same hot daemon, with the loopback TCP stack
       in the path instead of a Unix socket. *)
    let tcp_port =
      match Serve.Server.tcp_port server with
      | Some p -> p
      | None -> failwith "bench: serve daemon bound no TCP port"
    in
    let tcp_fd =
      match
        Serve.Server.connect_endpoint
          (Serve.Server.Tcp { host = "127.0.0.1"; port = tcp_port })
      with
      | Ok fd -> fd
      | Error msg -> failwith ("bench: tcp connect failed: " ^ msg)
    in
    let tcp_in = Unix.in_channel_of_descr tcp_fd in
    let tcp_out = Unix.out_channel_of_descr tcp_fd in
    let tcp_request = request_on (roundtrip_on tcp_in tcp_out) in
    ignore (tcp_request ());
    let tcp = List.init n_warm (fun _ -> seconds_of tcp_request) in
    let tcp_output = fst (List.hd tcp) in
    let tcp_lats = List.map snd tcp in
    let stats = Serve.Session.stats session in
    let elab_hit_rate =
      float_of_int stats.Serve.Session.st_elab_hits
      /. float_of_int
           (max 1
              (stats.Serve.Session.st_elab_hits
             + stats.Serve.Session.st_elab_misses))
    in
    close_out_noerr conn_out;
    close_out_noerr tcp_out;
    Serve.Server.stop server;
    Serve.Server.run server;
    let identical =
      String.equal warm_output cold_output
      && String.equal tcp_output cold_output
    in
    let cold_rps = 1.0 /. mean cold_lats in
    let warm_rps = 1.0 /. mean warm_lats in
    let warm_tcp_rps = 1.0 /. mean tcp_lats in
    Printf.printf
      "serve/refine         cold %6.1f req/s  warm %8.1f req/s  (%.1fx)  \
       p50 %.2f ms  p95 %.2f ms  tcp %8.1f req/s  p50 %.2f ms  \
       elab hits %.0f%%  results %s\n"
      cold_rps warm_rps (warm_rps /. cold_rps)
      (percentile_ms 0.50 warm_lats)
      (percentile_ms 0.95 warm_lats)
      warm_tcp_rps
      (percentile_ms 0.50 tcp_lats)
      (100.0 *. elab_hit_rate)
      (if identical then "identical" else "DIVERGED");
    ( Printf.sprintf
        "{\"requests\":%d,\"cold_rps\":%.1f,\"warm_rps\":%.1f,\
         \"speedup\":%.1f,\"cold_p50_ms\":%.2f,\"cold_p95_ms\":%.2f,\
         \"warm_p50_ms\":%.2f,\"warm_p95_ms\":%.2f,\
         \"warm_tcp_rps\":%.1f,\"tcp_p50_ms\":%.2f,\"tcp_p95_ms\":%.2f,\
         \"elab_hit_rate\":%.3f,\"results_identical\":%b}"
        n_warm cold_rps warm_rps (warm_rps /. cold_rps)
        (percentile_ms 0.50 cold_lats)
        (percentile_ms 0.95 cold_lats)
        (percentile_ms 0.50 warm_lats)
        (percentile_ms 0.95 warm_lats)
        warm_tcp_rps
        (percentile_ms 0.50 tcp_lats)
        (percentile_ms 0.95 tcp_lats)
        elab_hit_rate identical,
      identical )
  in
  let json =
    Printf.sprintf
      "{\"schema\":\"coref-bench-sim-1\",\"simulate\":[%s],\"lint\":[%s],\
       \"faults\":%s,\"explore\":%s,\"checkpoint\":%s,\"litmus\":%s,\
       \"serve\":%s}\n"
      (String.concat "," sim_rows)
      (String.concat "," lint_rows)
      faults_row explore_row checkpoint_row litmus_row serve_row
  in
  let oc = open_out out_path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" out_path;
  if not (sim_identical && match_ok && serve_identical && litmus_ok) then
    exit 1

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "--json" argv then begin
    let rec out = function
      | "-o" :: path :: _ -> path
      | _ :: rest -> out rest
      | [] -> "BENCH_sim.json"
    in
    bench_json (out argv);
    exit 0
  end;
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
  explore_bench ();
  faults_bench ();
  workload_appendix "elevator controller" Elevator.spec Elevator.graph
    Elevator.partition;
  workload_appendix "4-tap FIR filter (arrays)" Fir.spec Fir.graph
    Fir.partition;
  run_bechamel ();
  print_endline "";
  print_endline "done."
