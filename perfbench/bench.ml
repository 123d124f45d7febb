(* Benchmark harness entry point; perfbench/run.py builds and drives it.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             [--mrefine PATH] [--trace-out FILE]

   Runs one in-process or served workload and prints the result line (one
   JSON object) last on stdout; per-class latency tables go to stderr.
   [bench.exe cli-refs --seed N --dir DIR] writes the cli-cold workload's
   inputs and in-process reference outputs instead. *)

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 10. in
  let trace = ref 0 in
  let mrefine = ref "_build/default/bin/mrefine.exe" in
  let trace_out = ref "" in
  let dir = ref "" in
  let mode = ref "run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed phase length");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--mrefine", Arg.Set_string mrefine, "PATH the mrefine executable");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace output");
      ("--dir", Arg.Set_string dir, "DIR cli-refs output directory");
    ]
    (fun m -> mode := m)
    "bench.exe [cli-refs] --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run w ~min_ops ~setup_repeats =
    Harness.run ~seconds:!seconds ~min_ops ~setup_repeats ~trace w
  in
  if !mode = "cli-refs" then Cli_refs.write ~seed:!seed ~dir:!dir
  else begin
    let outcome =
      match !workload with
      | "refine-scale" ->
        run (Refine_scale.workload ~seed:!seed) ~min_ops:100 ~setup_repeats:3
      | "faults-hardened" ->
        run
          (Faults_hardened.workload ~seed:!seed)
          ~min_ops:100 ~setup_repeats:3
      | "serve-mix" ->
        Serve_mix.run ~seed:!seed ~seconds:!seconds ~trace ~mrefine:!mrefine
      | w ->
        Printf.eprintf "bench.exe: unknown workload %S\n" w;
        exit 2
    in
    if trace && !trace_out <> "" then
      Spans.write_chrome !trace_out (Spans.all ());
    Harness.print_outcome outcome
  end
