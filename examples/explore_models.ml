(** Implementation-style exploration on the paper's Figure 2 example:
    four behaviors (B1–B4) and seven variables (v1–v7) partitioned
    between a processor and an ASIC, refined to all four implementation
    models (Figure 3a–d).  For each model we show the emerging
    architecture: memories, buses and their masters, arbiters and bus
    interfaces.  Also writes the access graph as Graphviz to
    [fig2_access_graph.dot].

    The second half turns the same question over to the design-space
    exploration engine ([lib/explore]): instead of one hand-picked
    partition, it sweeps partition seeds x local/global biases x the four
    models, evaluates every candidate through a memoized parallel
    pipeline, and reports the Pareto frontier over max bus rate,
    specification growth and pins+gates.

    Run with: [dune exec examples/explore_models.exe] *)

open Workloads

let memory_name = function
  | Core.Bus_plan.Gmem -> "Gmem"
  | Core.Bus_plan.Gmem_part i -> Printf.sprintf "Gmem%d" i
  | Core.Bus_plan.Lmem i -> Printf.sprintf "Lmem%d" i

let () =
  let spec = Smallspecs.fig2 in
  let graph = Agraph.Access_graph.of_program spec in
  let part = Smallspecs.fig2_partition in

  let report = Partitioning.Classify.report part in
  Printf.printf "Figure 2 example: local variables {%s}, global variables {%s}\n"
    (String.concat ", " report.Partitioning.Classify.locals)
    (String.concat ", " report.Partitioning.Classify.globals);

  let oc = open_out "fig2_access_graph.dot" in
  output_string oc (Agraph.Access_graph.to_dot graph);
  close_out oc;
  print_endline "wrote fig2_access_graph.dot";

  List.iter
    (fun model ->
      Printf.printf "\n=== %s: %s ===\n" (Core.Model.name model)
        (Core.Model.description model);
      let refined = Core.Refiner.refine spec graph part model in
      let plan = refined.Core.Refiner.rf_plan in
      (* Variable-to-memory mapping (Figure 3's memory boxes). *)
      List.iter
        (fun mem ->
          Printf.printf "  %-6s holds: %s\n" (memory_name mem)
            (String.concat ", " (Core.Bus_plan.vars_of_memory plan mem)))
        (Core.Bus_plan.memories plan);
      (* Buses, their masters and arbitration. *)
      List.iter
        (fun (b : Core.Refiner.bus_inst) ->
          Printf.printf "  bus %-14s masters [%s]%s\n"
            b.Core.Refiner.bi_signals.Core.Protocol.bs_label
            (String.concat "; " (List.map fst b.Core.Refiner.bi_requesters))
            (match b.Core.Refiner.bi_arbiter with
            | Some arb ->
              Printf.sprintf " arbitrated by %s" arb.Core.Arbiter.arb_behavior_name
            | None -> ""))
        refined.Core.Refiner.rf_buses;
      Printf.printf
        "  buses used: %d (model bound for p=2: %d); memories: %d; size %d lines\n"
        (List.length refined.Core.Refiner.rf_buses)
        (Core.Model.max_buses model ~p:2)
        (List.length refined.Core.Refiner.rf_memories)
        (Spec.Printer.line_count refined.Core.Refiner.rf_program);
      let verdict =
        Sim.Cosim.check ~original:spec ~refined:refined.Core.Refiner.rf_program
          ()
      in
      Printf.printf "  cosimulation: %s\n"
        (if verdict.Sim.Cosim.v_equivalent then "equivalent" else "FAILED"))
    Core.Model.all;

  (* --- automatic design-space exploration over the same example ------- *)
  print_endline "";
  print_endline "=== design-space exploration (lib/explore) ===";
  let config =
    {
      Explore.Sweep.default_config with
      Explore.Sweep.seeds = [ 1; 2 ];
      steps = 1000;
      jobs = Explore.Pool.default_jobs ();
    }
  in
  let sweep = Explore.Sweep.run config spec in
  print_string (Explore.Sweep.to_text ~top:8 sweep)
