(** Automated refinement verification at scale: generate random
    terminating specifications, partition them automatically (greedy + KL
    improvement), refine them under every implementation model — including
    the forced non-leaf control scheme of Figure 4c — and co-simulate each
    refinement against its original.

    Run with: [dune exec examples/cosimulate.exe] *)

open Workloads

let () =
  let total = ref 0 and failed = ref 0 in
  for seed = 1 to 10 do
    let cfg =
      {
        Generator.default_config with
        gen_seed = seed;
        gen_vars = 4 + (seed mod 4);
        gen_leaves = 5 + (seed mod 5);
        gen_par_branches = (if seed mod 3 = 0 then 2 else 0);
      }
    in
    let spec = Generator.program cfg in
    let graph = Agraph.Access_graph.of_program spec in
    let n_parts = 2 + (seed mod 2) in
    let part = Partitioning.Kl.run_from_scratch graph ~n_parts in
    let report = Partitioning.Classify.report part in
    Printf.printf
      "spec seed=%d: %d leaves, %d vars (%d local / %d global), p=%d\n" seed
      (List.length graph.Agraph.Access_graph.g_objects)
      (List.length graph.Agraph.Access_graph.g_variables)
      (List.length report.Partitioning.Classify.locals)
      (List.length report.Partitioning.Classify.globals)
      n_parts;
    List.iter
      (fun model ->
        List.iter
          (fun (force_nonleaf, protocol) ->
            incr total;
            let options = { Core.Refiner.default_options with force_nonleaf; protocol } in
            let refined = Core.Refiner.refine ~options spec graph part model in
            let trace_mode =
              if cfg.Generator.gen_par_branches >= 2 then Sim.Cosim.Per_tag
              else Sim.Cosim.Total
            in
            let verdict =
              Sim.Cosim.check ~trace_mode ~original:spec
                ~refined:refined.Core.Refiner.rf_program ()
            in
            let scheme =
              Printf.sprintf "%s/%s"
                (if force_nonleaf then "fig4c" else "fig4b")
                (Core.Protocol.style_name protocol)
            in
            if verdict.Sim.Cosim.v_equivalent then
              Printf.printf "  %-7s %-16s ok (%d lines)\n" (Core.Model.name model)
                scheme
                (Spec.Printer.line_count refined.Core.Refiner.rf_program)
            else begin
              incr failed;
              Printf.printf "  %-7s %-16s FAILED: %s\n" (Core.Model.name model)
                scheme
                (String.concat "; " verdict.Sim.Cosim.v_problems)
            end)
          [
            (false, Core.Protocol.Four_phase);
            (true, Core.Protocol.Four_phase);
            (false, Core.Protocol.Two_phase);
          ])
        Core.Model.all
  done;
  Printf.printf "\n%d/%d refinements equivalent\n" (!total - !failed) !total;
  if !failed > 0 then exit 1
