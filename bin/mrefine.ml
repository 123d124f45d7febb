(** [mrefine] — command-line driver for the model-refinement flow:
    parse a specification, derive its access graph, partition it, refine
    it to one of the four implementation models, simulate, and check
    functional equivalence.  The refine, lint, explore, faults and
    litmus subcommands only wire their flags to a {!Command} request. *)

open Cmdliner

let read_file path = In_channel.with_open_bin path In_channel.input_all

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("mrefine: " ^ msg);
    exit 1

(* A simulation whose fault-free run fails to evaluate an expression
   (a division by zero, say) is a run error, not a crash. *)
let or_run_error f =
  match f () with
  | r -> r
  | exception Spec.Expr.Eval_error msg -> or_die (Error ("run error: " ^ msg))

let load_spec_located path =
  or_die (Spec.Parser.valid_program_of_string (read_file path))

let load_spec path = fst (load_spec_located path)

(* A specification and its access graph. *)
let load_graph path =
  let p = load_spec path in
  (p, Agraph.Access_graph.of_program p)

(* The shared secret of [serve] and [client]: [--token], or the contents
   of [--token-file] with trailing whitespace stripped.  Resolved when
   the command line is read; the subcommand decides when an error
   stops it. *)
let token_term ~doc ~file_doc =
  let token =
    Arg.(value & opt (some string) None & info [ "token" ] ~docv:"SECRET" ~doc)
  in
  let token_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "token-file" ] ~docv:"FILE" ~doc:file_doc)
  in
  let resolve token token_file =
    match (token, token_file) with
    | Some _, Some _ -> Error "give only one of --token and --token-file"
    | Some t, None -> Ok (Some t)
    | None, Some path -> (
      match read_file path with
      | s -> Ok (Some (String.trim s))
      | exception Sys_error msg -> Error ("cannot read --token-file: " ^ msg))
    | None, None -> Ok None
  in
  Term.(const resolve $ token $ token_file)

(* An endpoint flag.  With [~tcp:(flag, where)] only HOST:PORT will do,
   and [where] says where Unix sockets go instead. *)
let endpoint ?tcp s =
  match (Serve.Server.endpoint_of_string s, tcp) with
  | Ok (Serve.Server.Unix_path _), Some (flag, where) ->
    or_die (Error (Printf.sprintf "%s wants HOST:PORT (%s)" flag where))
  | r, _ -> or_die r

(* A failed bind or listen on [where], as an input error. *)
let cannot_listen where err msg =
  Error
    (Printf.sprintf "cannot listen on %s: %s%s" where (Unix.error_message err)
       (if msg = "" then "" else " (" ^ msg ^ ")"))

(* --- common arguments -------------------------------------------------- *)

let spec_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC" ~doc:"Specification file (textual SpecCharts-like syntax).")

let conv_of parse name =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (name v) )

let model_conv = conv_of Command.model_of_string Core.Model.name
let memord_conv =
  conv_of Sim.Memord.policy_of_string Sim.Memord.policy_to_string

let defaults = Command.default_design

let model_arg =
  Arg.(
    value
    & opt model_conv defaults.model
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:"Implementation model: model1..model4 (or 1..4).")

let parts_arg default =
  Arg.(
    value
    & opt int default
    & info [ "p"; "parts" ] ~docv:"N" ~doc:"Number of partitions (components).")

let partitioning_term =
  let d = defaults.partitioning in
  let seed =
    Arg.(
      value
      & opt int d.seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for randomized algorithms.")
  in
  let algo =
    Arg.(
      value
      & opt (enum Command.algos) d.algo
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:"Automatic partitioner: greedy, kl, annealing or clustering.")
  in
  let assign =
    Arg.(
      value
      & opt (some string) None
      & info [ "assign" ] ~docv:"ASSIGN"
          ~doc:
            "Manual partition, e.g. \"A=0,B=1,x=1\"; every behavior object \
             and variable must be assigned.  Overrides $(b,--algo).")
  in
  Term.(
    const (fun parts algo seed assign -> { Command.parts; algo; seed; assign })
    $ parts_arg d.parts $ algo $ seed $ assign)

let design_term =
  let protocol =
    Arg.(
      value
      & opt (enum Command.protocols) defaults.protocol
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:"Bus handshake: four-phase (paper Figure 5d) or two-phase.")
  in
  let harden =
    Arg.(
      value & flag
      & info [ "harden" ]
          ~doc:
            "Generate the hardened protocol variant: watchdog timeouts with \
             bounded exponential-backoff retries on every handshake, \
             idempotent slave re-decode and triplicated memory storage \
             with majority voting.")
  in
  Term.(
    const (fun partitioning model protocol harden ->
        { Command.partitioning; model; protocol; harden })
    $ partitioning_term $ model_arg $ protocol $ harden)

(* The default protocol, unhardened: for subcommands without those
   flags. *)
let plain_design_term =
  Term.(
    const (fun partitioning model ->
        { defaults with Command.partitioning; model })
    $ partitioning_term $ model_arg)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write output to FILE.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let deadline_arg doc =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let resume_arg doc =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"JOURNAL" ~doc)

let write_out output text =
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path

(* The exit statuses of every subcommand; see the mapping at the end. *)
let exits =
  Cmd.Exit.
    [ info 0 ~doc:"on success.";
      info 1 ~doc:"on any error or finding, reported on standard error.";
      info 125 ~doc:"on unexpected internal errors (bugs)." ]

let info name ~doc = Cmd.info name ~exits ~doc

(* --- subcommands -------------------------------------------------------- *)

let parse_cmd =
  let run spec_path =
    let p = load_spec spec_path in
    let m = Core.Metrics.of_program p in
    Format.printf "%s: %a@." p.Spec.Ast.p_name Core.Metrics.pp m
  in
  Cmd.v (info "parse" ~doc:"Parse and validate a specification.")
    Term.(const run $ spec_arg)

let graph_cmd =
  let run spec_path dot output =
    let _, g = load_graph spec_path in
    if dot then write_out output (Agraph.Access_graph.to_dot g)
    else begin
      Printf.printf "objects: %s\n"
        (String.concat ", " g.Agraph.Access_graph.g_objects);
      Printf.printf "variables: %s\n"
        (String.concat ", " g.Agraph.Access_graph.g_variables);
      Printf.printf "data channels: %d, control arcs: %d\n"
        (Agraph.Access_graph.channel_count g)
        (List.length g.Agraph.Access_graph.g_control);
      List.iter
        (fun (e : Agraph.Access_graph.data_edge) ->
          Printf.printf "  %s %s %s (%d x %d bits)\n"
            e.Agraph.Access_graph.de_behavior
            (match e.Agraph.Access_graph.de_dir with
            | Agraph.Access_graph.Dread -> "reads"
            | Agraph.Access_graph.Dwrite -> "writes")
            e.Agraph.Access_graph.de_variable e.Agraph.Access_graph.de_count
            e.Agraph.Access_graph.de_bits)
        g.Agraph.Access_graph.g_data
    end
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a summary.")
  in
  Cmd.v
    (info "graph" ~doc:"Derive and display the access graph.")
    Term.(const run $ spec_arg $ dot $ output_arg)

let partition_cmd =
  let run spec_path partitioning =
    let _, g = load_graph spec_path in
    let part = or_die (Command.partition g partitioning) in
    Format.printf "%a@." Partitioning.Partition.pp part;
    let r = Partitioning.Classify.report part in
    Printf.printf "local variables: %s\nglobal variables: %s\n"
      (String.concat ", " r.Partitioning.Classify.locals)
      (String.concat ", " r.Partitioning.Classify.globals);
    Printf.printf "cross-partition traffic: %d bits\n"
      (Partitioning.Cost.comm_bits part)
  in
  Cmd.v
    (info "partition" ~doc:"Partition a specification and classify variables.")
    Term.(const run $ spec_arg $ partitioning_term)

let refine_cmd =
  let run spec_path design output quiet =
    let p, g = load_graph spec_path in
    let r = or_die (Command.Refine.run p g design) in
    if not quiet then begin
      Printf.eprintf "model: %s\n" (Core.Model.name design.Command.model);
      Printf.eprintf "buses: %s\n"
        (String.concat ", "
           (List.map
              (fun (b : Core.Refiner.bus_inst) ->
                Printf.sprintf "%s(%d masters%s)"
                  b.Core.Refiner.bi_signals.Core.Protocol.bs_label
                  (List.length b.Core.Refiner.bi_requesters)
                  (match b.Core.Refiner.bi_arbiter with
                  | Some _ -> ", arbitrated"
                  | None -> ""))
              r.Core.Refiner.rf_buses));
      Printf.eprintf "memories: %s\n" (String.concat ", " r.Core.Refiner.rf_memories);
      Printf.eprintf "moved behaviors: %s\n"
        (String.concat ", " r.Core.Refiner.rf_moved);
      Printf.eprintf "size: %d -> %d lines (%.1fx)\n"
        (Spec.Printer.line_count p)
        (Spec.Printer.line_count r.Core.Refiner.rf_program)
        (Core.Metrics.growth ~original:p ~refined:r.Core.Refiner.rf_program)
    end;
    write_out output (Command.Refine.render r)
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the report.")
  in
  Cmd.v
    (info "refine" ~doc:"Refine a partitioned specification to a model.")
    Term.(const run $ spec_arg $ design_term $ output_arg $ quiet)

let simulate_cmd =
  let run spec_path vcd_path =
    let p = load_spec spec_path in
    let config =
      { Sim.Engine.default_config with trace_signals = vcd_path <> None }
    in
    let r = or_run_error (fun () -> Sim.Engine.run ~config p) in
    Printf.printf "outcome: %s (deltas=%d, steps=%d)\n"
      (Sim.Engine.outcome_to_string r.Sim.Engine.r_outcome)
      r.Sim.Engine.r_deltas r.Sim.Engine.r_steps;
    List.iter
      (fun e ->
        Format.printf "  emit %s = %a@." e.Sim.Trace.ev_tag Spec.Expr.pp_value
          e.Sim.Trace.ev_value)
      r.Sim.Engine.r_trace;
    List.iter
      (fun (name, v) ->
        Format.printf "  final %s = %a@." name Spec.Expr.pp_value v)
      r.Sim.Engine.r_final;
    if vcd_path <> None then write_out vcd_path (Sim.Vcd.of_result p r)
  in
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump signal waveforms as VCD to FILE.")
  in
  Cmd.v
    (info "simulate" ~doc:"Simulate a specification and print its trace.")
    Term.(const run $ spec_arg $ vcd)

let cosim_cmd =
  let run spec_path design =
    let p, g = load_graph spec_path in
    let r = or_die (Command.refine p g design) in
    (* Hardened designs emit reserved watchdog/recovery markers with no
       counterpart in the original trace. *)
    let ignore_prefixes =
      if design.Command.harden then Core.Protocol.reserved_tag_prefixes
      else []
    in
    let v =
      or_run_error
        (Sim.Cosim.check ~ignore_prefixes ~original:p
           ~refined:r.Core.Refiner.rf_program)
    in
    if v.Sim.Cosim.v_equivalent then begin
      Printf.printf
        "equivalent: refined %s design matches the original specification\n"
        (Core.Model.name design.Command.model);
      Printf.printf "(original: %d deltas; refined: %d deltas)\n"
        v.Sim.Cosim.v_original.Sim.Engine.r_deltas
        v.Sim.Cosim.v_refined.Sim.Engine.r_deltas
    end
    else begin
      Printf.printf "NOT equivalent:\n";
      List.iter (fun m -> Printf.printf "  %s\n" m) v.Sim.Cosim.v_problems;
      exit 1
    end
  in
  Cmd.v
    (info "cosim"
       ~doc:"Refine, then co-simulate original vs refined and compare.")
    Term.(const run $ spec_arg $ design_term)

let typecheck_cmd =
  let run spec_path =
    let p = load_spec spec_path in
    match Spec.Typecheck.check p with
    | Ok () -> Printf.printf "%s: well typed\n" p.Spec.Ast.p_name
    | Error errs ->
      List.iter (fun e -> Printf.printf "type error: %s\n" e) errs;
      exit 1
  in
  Cmd.v
    (info "typecheck" ~doc:"Statically typecheck a specification.")
    Term.(const run $ spec_arg)

let export_cmd =
  let run spec_path backend output refine_first design =
    let p = load_spec spec_path in
    let p =
      if not refine_first then p
      else
        let g = Agraph.Access_graph.of_program p in
        (or_die (Command.refine p g design)).Core.Refiner.rf_program
    in
    let code =
      match backend with
      | `Vhdl -> Export.Vhdl.emit_program p
      | `C -> Export.C_backend.emit_program p
    in
    write_out output (or_die code)
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("vhdl", `Vhdl); ("c", `C) ]) `Vhdl
      & info [ "b"; "backend" ] ~docv:"BACKEND"
          ~doc:
            "Code generator: vhdl (full specifications) or c (sequential \
             software).")
  in
  let refine_first =
    Arg.(
      value & flag
      & info [ "refine" ]
          ~doc:"Refine first (with --model/--parts/--algo/--assign), then export.")
  in
  Cmd.v
    (info "export" ~doc:"Generate VHDL or C from a specification.")
    Term.(
      const run $ spec_arg $ backend $ output_arg $ refine_first
      $ plain_design_term)

let quality_cmd =
  let run spec_path design =
    let p, g = load_graph spec_path in
    let r = or_die (Command.refine p g design) in
    let n_parts = design.Command.partitioning.parts in
    if n_parts > 2 then
      prerr_endline
        "mrefine: note: the default allocation pairs a processor with ASICs";
    let alloc = Explore.Evaluate.default_alloc ~n_parts in
    let q = Core.Quality.of_refinement ~alloc r in
    Format.printf "@[<v>%a@]@." Core.Quality.pp q
  in
  Cmd.v
    (info "quality"
       ~doc:"Refine and estimate quality metrics (time, size, gates, pins).")
    Term.(const run $ spec_arg $ plain_design_term)

let explore_cmd =
  let d = Command.Explore.default in
  let request =
    let models =
      Arg.(
        value
        & opt (list model_conv) d.models
        & info [ "models" ] ~docv:"MODELS"
            ~doc:"Comma-separated implementation models to sweep (default: \
                  all four).")
    in
    let seeds =
      Arg.(
        value
        & opt (list int) d.seeds
        & info [ "seeds" ] ~docv:"SEEDS"
            ~doc:"Comma-separated partition-search seeds.")
    in
    let biases =
      Arg.(
        value
        & opt
            (list
               (conv_of Command.bias_of_string Explore.Candidate.bias_name))
            d.biases
        & info [ "biases" ] ~docv:"BIASES"
            ~doc:"Comma-separated local/global balance targets: balanced, \
                  local, global (default: all three).")
    in
    let steps =
      Arg.(
        value
        & opt int d.steps
        & info [ "steps" ] ~docv:"STEPS"
            ~doc:"Annealing steps per partition search.")
    in
    let jobs =
      Arg.(
        value
        & opt int d.jobs
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:"Worker domains evaluating candidates in parallel.  The \
                  result is identical for every N.")
    in
    let top =
      Arg.(
        value
        & opt int d.top
        & info [ "top" ] ~docv:"K"
            ~doc:"Show only the first K candidate rows (0 = all).  The \
                  Pareto frontier is always printed in full.")
    in
    let deadline =
      deadline_arg
        "Per-candidate wall-clock budget.  A candidate exceeding it (e.g. \
         a runaway simulation) is cancelled cooperatively and reported as \
         timed out; the other workers are unaffected and nothing transient \
         is cached."
    in
    let retries =
      Arg.(
        value
        & opt int d.retries
        & info [ "retries" ] ~docv:"N"
            ~doc:"Supervised retries (with exponential backoff) for an \
                  evaluation that raises, before the candidate is \
                  quarantined as crashed.")
    in
    Term.(
      const
        (fun models seeds biases parts steps jobs top deadline retries json ->
          { Command.Explore.models; seeds; biases; parts; steps; jobs; top;
            deadline; retries; json })
      $ models $ seeds $ biases $ parts_arg d.parts $ steps $ jobs $ top
      $ deadline $ retries $ json_arg)
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string ".mrefine-cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persistent evaluation cache directory; repeated sweeps \
                reuse refinements across runs.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Do not read or write the on-disk cache.")
  in
  let resume =
    resume_arg
      "Checkpoint journal file (created if missing).  Every definitive \
       evaluation is appended as it completes; rerun with the same journal \
       after a crash or kill to replay completed candidates and continue \
       from the frontier."
  in
  let run spec_path req cache_dir no_cache resume output =
    let p = load_spec spec_path in
    let cache =
      if no_cache then Explore.Cache.create ()
      else
        try Explore.Cache.create ~dir:cache_dir ()
        with Sys_error msg ->
          or_die
            (Error (Printf.sprintf "cannot create cache directory %s: %s"
                      cache_dir msg))
    in
    let sw = or_die (Command.Explore.run ~cache ?resume p req) in
    write_out output (Command.Explore.render req sw)
  in
  Cmd.v
    (info "explore"
       ~doc:
         "Sweep the design space (partition seeds x biases x models), \
          evaluate every candidate in parallel with memoization, and \
          report the Pareto frontier over max bus rate, specification \
          growth and pins+gates.  Long sweeps run supervised: worker \
          crashes and per-candidate deadlines degrade coverage instead \
          of aborting, and $(b,--resume) checkpoints every completed \
          evaluation to a crash-safe journal.")
    Term.(
      const run $ spec_arg $ request $ cache_dir_arg $ no_cache_arg $ resume
      $ output_arg)

let faults_cmd =
  let d = Command.Faults.default in
  let request =
    let classes =
      Arg.(
        value
        & opt
            (list (conv_of Command.fault_class_of_string Faults.Fault.cls_name))
            d.classes
        & info [ "faults" ] ~docv:"CLASSES"
            ~doc:
              "Comma-separated fault classes to inject: bit-flip, \
               multi-bit-flip, drop-handshake, delay-handshake, stuck-line, \
               grant-starvation (default: all).")
    in
    let seeds =
      Arg.(
        value
        & opt int d.seeds
        & info [ "seeds" ] ~docv:"N"
            ~doc:"Seeded campaign rounds; each round draws one fault per \
                  class.")
    in
    let base_seed =
      Arg.(
        value
        & opt int d.base_seed
        & info [ "base-seed" ] ~docv:"SEED"
            ~doc:"Base seed of the campaign's deterministic fault draws.")
    in
    let deadline =
      deadline_arg
        "Wall-clock budget of the whole campaign: once exceeded, the \
         running simulation is cancelled cooperatively, classified \
         timed-out, and the campaign stops instead of hanging the \
         command."
    in
    let ordering =
      Arg.(
        value
        & opt memord_conv d.ordering
        & info [ "ordering" ] ~docv:"POLICY"
            ~doc:"Port-ordering semantics of the refined multi-port memory \
                  during the campaign: sc (default, today's sequentially \
                  consistent commits), per-port-fifo, or relaxed[:N] \
                  (bounded per-port reordering window).  Every run, golden \
                  and faulty alike, executes under the same policy and \
                  scheduler seed.")
    in
    Term.(
      const
        (fun design classes seeds base_seed json deadline ordering ->
          { Command.Faults.design; classes; seeds; base_seed; deadline;
            ordering; json })
      $ design_term $ classes $ seeds $ base_seed $ json_arg $ deadline
      $ ordering)
  in
  let resume =
    resume_arg
      "Checkpoint journal file (created if missing).  Every classified run \
       is appended as it completes; rerun with the same journal to replay \
       completed runs and continue the campaign from where it stopped."
  in
  (* A campaign against an unhardened design: surface the contextual
     ROBUST001 warnings so the deadlocks it reports come as no surprise. *)
  let robust_warnings (r : Core.Refiner.t) =
    match Lint.Registry.find_pass "robust" with
    | None -> ()
    | Some pass ->
      Lint.Registry.run ~phase:Lint.Registry.Post ~typecheck:false
        ~passes:[ pass ] r.Core.Refiner.rf_program
      |> List.iter (fun d ->
             prerr_endline ("mrefine: " ^ Spec.Diagnostic.to_string d))
  in
  let run spec_path req resume output =
    let p, g = load_graph spec_path in
    let refine () =
      let design = req.Command.Faults.design in
      let r = Command.refine p g design in
      if not design.harden then Result.iter robust_warnings r;
      r
    in
    let rp = or_die (Command.Faults.run ?resume ~refine req) in
    write_out output (Command.Faults.render req rp)
  in
  Cmd.v
    (info "faults"
       ~doc:
         "Refine, then run a deterministic seeded fault-injection campaign \
          against the co-simulated design: memory bit flips, dropped and \
          delayed handshake events, stuck bus lines, arbiter grant \
          starvation.  Classifies every run as survived, recovered, \
          deadlock, silent-corruption or step-limit; with $(b,--harden) \
          the design retries and repairs instead of hanging.")
    Term.(const run $ spec_arg $ request $ resume $ output_arg)

let litmus_cmd =
  let d = Command.Litmus.default in
  let request =
    let orderings =
      Arg.(
        value
        & opt (list memord_conv) d.orderings
        & info [ "ordering" ] ~docv:"POLICIES"
            ~doc:"Comma-separated port-ordering policies to run each shape \
                  under: sc, per-port-fifo, relaxed[:N] (default: all \
                  three).")
    in
    let shapes =
      Arg.(
        value
        & opt
            (list
               (conv_of Command.shape_of_string (fun s ->
                    s.Litmus.Shape.sh_name)))
            d.shapes
        & info [ "shape" ] ~docv:"NAMES"
            ~doc:"Comma-separated shape names to run (default: all).  \
                  Available: sb, mp, lb, co, mem, mem-tmr.")
    in
    let seeds =
      Arg.(
        value
        & opt int d.seeds
        & info [ "seeds" ] ~docv:"N"
            ~doc:"Scheduler seeds 1..N per weak ordering (sc is \
                  deterministic and runs once).")
    in
    let faults =
      Arg.(
        value & flag
        & info [ "faults" ]
            ~doc:"Also run each shape under its canned fault plans (a late \
                  bit flip pushing an observed register out of the domain, \
                  and a dropped handshake edge) from $(b,lib/faults).")
    in
    Term.(
      const (fun orderings shapes seeds faults json ->
          { Command.Litmus.shapes; orderings; seeds; faults; json })
      $ orderings $ shapes $ seeds $ faults $ json_arg)
  in
  let run req output =
    let rp = or_die (Command.Litmus.run req) in
    write_out output (Command.Litmus.render req rp);
    (* Forbidden outcomes, corruption outside fault injection, and kernel
       disagreements all mean the ordering model is broken — fail. *)
    let bad =
      rp.Litmus.Suite.rp_forbidden > 0
      || rp.Litmus.Suite.rp_kernel_mismatches > 0
      || (not req.Command.Litmus.faults) && rp.Litmus.Suite.rp_corruption > 0
    in
    if bad then exit 1
  in
  Cmd.v
    (info "litmus"
       ~doc:
         "Run the built-in weak-memory litmus shapes (store buffering, \
          message passing, load buffering, coherence, and a generated \
          two-port Model3 memory, hardened and not) across port-ordering \
          policies, scheduler seeds and optional fault plans, on both \
          simulation kernels.  Classifies every outcome as sc-consistent, \
          weak-allowed, forbidden, deadlock or corruption against the \
          shape's enumerated allowed sets, and reports RACE003 for shapes \
          whose outcome is ordering-dependent.  Exits non-zero on any \
          forbidden outcome, fault-free corruption, or kernel mismatch.")
    Term.(const run $ request $ output_arg)

let lint_cmd =
  let r = Command.Lint.default_report in
  let spec_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"SPEC"
          ~doc:"Specification file to lint (omit with $(b,--workloads)).")
  in
  let severity_arg =
    Arg.(
      value
      & opt
          (some' ~none:r.severity
             (conv_of Command.severity_of_string Spec.Diagnostic.severity_name))
          None
      & info [ "severity" ] ~docv:"LEVEL"
          ~doc:"Report only diagnostics of at least this severity: info \
                (default), warning or error.")
  in
  let code_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "code" ] ~docv:"CODES"
          ~doc:"Report only these comma-separated diagnostic codes, e.g. \
                RACE001,PROTO002.")
  in
  let phase_arg =
    Arg.(
      value
      & opt (some' ~none:r.phase (enum Command.phases)) None
      & info [ "phase" ] ~docv:"PHASE"
          ~doc:"Severity policy phase: pre (unpartitioned input), post \
                (refined output) or auto (detect from the program shape; \
                default).")
  in
  let workloads_arg =
    Arg.(
      value & flag
      & info [ "workloads" ]
          ~doc:"Lint every built-in workload spec plus all refined medical \
                (design x model) outputs instead of a SPEC file.")
  in
  let list_codes_arg =
    Arg.(
      value & flag
      & info [ "list-codes" ] ~doc:"Print the diagnostic code table and exit.")
  in
  let flow_arg =
    Arg.(
      value & flag
      & info [ "flow" ]
          ~doc:"Run the flow-sensitive analyses: build a control-flow graph \
                and interval/liveness fixpoint per leaf behavior, prune \
                unreachable-by-value findings, add dead-store and \
                written-never-read diagnostics, and sharpen width checks \
                with value ranges.")
  in
  let fix_arg =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:"Rewrite the spec to fix the mechanical diagnostics \
                (CONT001, PROTO003, WIDTH001; restrict with $(b,--code), \
                which must name fixable codes only) and print the fixed \
                source.  Every rewrite is gated: it must re-parse, re-lint \
                clean for the fixed code and cosimulate bit-identically \
                with the input; refused fixes are reported on stderr with \
                the reason.  The report-only options ($(b,--severity), \
                $(b,--phase), $(b,--severity-override), $(b,--flow)) are \
                rejected.")
  in
  let override_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "severity-override" ] ~docv:"CODE=LEVEL"
          ~doc:"Remap a diagnostic code's severity (LEVEL = error, \
                warning, info) or silence it (LEVEL = off), e.g. \
                $(b,--severity-override WIDTH001=error).  Repeatable; \
                applied before $(b,--severity) filtering and the exit \
                code.")
  in
  let workload_targets () =
    let target ?phase (t_name, t_program) =
      { Command.Lint.t_name; t_program; t_phase = phase; t_locations = None }
    in
    let builtin =
      List.map
        (fun name -> (name, Workloads.Builtin.program name))
        Workloads.Builtin.names
    in
    let medical = List.assoc "medical" builtin in
    let graph = Agraph.Access_graph.of_program medical in
    let refined =
      List.concat_map
        (fun (d : Workloads.Builtin.design) ->
          List.map
            (fun m ->
              let r = Core.Refiner.refine medical graph d.d_partition m in
              target ~phase:Lint.Registry.Post
                ( Printf.sprintf "medical/%s/%s" d.d_name (Core.Model.name m),
                  r.Core.Refiner.rf_program ))
            Core.Model.all)
        (Workloads.Builtin.designs graph)
    in
    List.map target builtin @ refined
  in
  let request severity codes phase json overrides flow fix =
    if fix then
      Command.Lint.fix ~codes ~json
        ~given:
          (List.filter_map
             (fun (set, flag) -> if set then Some flag else None)
             [ (severity <> None, "--severity"); (phase <> None, "--phase");
               (overrides <> [], "--severity-override"); (flow, "--flow") ])
    else
      let overrides =
        List.map (fun s -> or_die (Lint.Registry.parse_override s)) overrides
      in
      Ok
        {
          Command.Lint.codes;
          json;
          mode =
            Report
              {
                severity = Option.value severity ~default:r.severity;
                phase = Option.join phase;
                overrides;
                flow;
              };
        }
  in
  let run spec_path severity codes phase json workloads list_codes overrides
      flow fix output =
    if list_codes then begin
      List.iter
        (fun (code, descr) -> Printf.printf "%-9s %s\n" code descr)
        Lint.Registry.code_table;
      exit 0
    end;
    let req = or_die (request severity codes phase json overrides flow fix) in
    let targets =
      match (spec_path, workloads) with
      | _, true -> workload_targets ()
      | Some path, false ->
        let p, locs = load_spec_located path in
        [ Command.Lint.target req path p locs ]
      | None, false -> or_die (Error "give a SPEC file or --workloads")
    in
    let outcome = or_die (Command.Lint.run req targets) in
    (match outcome with
    | Fixed x when not json ->
      List.iter
        (fun (a : Lint.Fixer.applied) ->
          Printf.eprintf "applied %s %s: %s\n" a.Lint.Fixer.fx_code
            a.Lint.Fixer.fx_loc a.Lint.Fixer.fx_note)
        x.Lint.Fixer.x_applied;
      List.iter
        (fun (f : Lint.Fixer.refused) ->
          Printf.eprintf "refused %s %s: %s\n" f.Lint.Fixer.fr_code
            f.Lint.Fixer.fr_loc f.Lint.Fixer.fr_reason)
        x.Lint.Fixer.x_refused
    | _ -> ());
    write_out output (Command.Lint.render req outcome);
    match outcome with
    | Diagnostics ts when Lint.Report.errors ts > 0 -> exit 1
    | _ -> ()
  in
  Cmd.v
    (info "lint"
       ~doc:
         "Run the static-analysis passes (races, protocol conformance, \
          liveness, bus contention, width narrowing) plus the type checker \
          over a specification, and exit non-zero on any error-severity \
          diagnostic.  $(b,--flow) adds the CFG/interval/liveness \
          fixpoint analyses; $(b,--fix) rewrites the mechanical findings \
          with simulation-equivalence gating.")
    Term.(
      const run $ spec_opt_arg $ severity_arg $ code_arg $ phase_arg
      $ json_arg $ workloads_arg $ list_codes_arg $ override_arg
      $ flow_arg $ fix_arg $ output_arg)

let serve_cmd =
  let d = Serve.Server.default_config in
  let socket_arg =
    Arg.(
      value
      & opt string ".mrefine.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on (a stale socket file \
                is replaced).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains per dispatched batch.  1 (the default) runs \
                jobs inline in the dispatcher, which keeps the simulator's \
                domain-local session cache hot across requests.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist the shared evaluation cache under DIR; omitted = \
                in-memory only.")
  in
  let cache_entries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Cap the resident evaluation-cache entries (LRU evicted; \
                with $(b,--cache-dir) eviction demotes to disk).")
  in
  let cache_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-bytes" ] ~docv:"BYTES"
          ~doc:"Cap the resident evaluation-cache payload bytes.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Crash-safe job journal (created if missing).  Submitted \
                jobs and their outcomes are checkpointed; a restarted \
                daemon replays finished jobs and re-enqueues the ones that \
                were in flight when it died.")
  in
  let max_jobs_arg =
    Arg.(
      value
      & opt int Serve.Scheduler.default_max_jobs
      & info [ "max-jobs" ] ~docv:"N"
          ~doc:"Bound on retained jobs; submits beyond it are rejected.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"SECONDS"
          ~doc:"Per-job wall-clock budget applied to jobs that carry no \
                $(i,job_deadline) of their own; exceeded jobs are \
                cancelled cooperatively and reported failed.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:"Additionally listen on TCP (port 0 picks an ephemeral \
                port).  TCP clients must authenticate when a token is \
                configured.")
  in
  let token =
    token_term
      ~doc:"Shared-secret token TCP clients must present as their first \
            frame ($(i,{\"op\":\"auth\",...})).  Unix-socket clients are \
            trusted by file permissions and never need it."
      ~file_doc:"Read the shared-secret token from FILE (trailing \
                 whitespace stripped); keeps the secret out of process \
                 listings."
  in
  let max_connections_arg =
    Arg.(
      value
      & opt int d.cfg_max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Cap on simultaneous connections; clients beyond it get \
                one structured error reply with a $(i,retry_after_ms) \
                hint and are disconnected.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt float (Option.value d.cfg_idle_timeout_s ~default:0.)
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Reap connections that send nothing for this long \
                (0 disables).")
  in
  let write_timeout_arg =
    Arg.(
      value
      & opt float (Option.value d.cfg_write_timeout_s ~default:0.)
      & info [ "write-timeout" ] ~docv:"SECONDS"
          ~doc:"Reap connections that will not drain our replies for \
                this long (0 disables).")
  in
  let max_frame_bytes_arg =
    Arg.(
      value
      & opt int d.cfg_max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:"Cap on one request frame; larger frames cost one error \
                reply and are discarded.")
  in
  let max_pending_arg =
    Arg.(
      value
      & opt int Serve.Scheduler.default_max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Admission-control cap on queued plus running jobs; \
                submits past it are turned away with a \
                $(i,retry_after_ms) backpressure hint.")
  in
  let run socket jobs cache_dir cache_entries cache_bytes journal max_jobs
      deadline listen token max_connections idle_timeout write_timeout
      max_frame_bytes max_pending =
    List.iter or_die
      [ Command.at_least "--jobs" 1 jobs;
        Command.at_least "--max-jobs" 1 max_jobs;
        Command.at_least "--max-pending" 1 max_pending;
        Command.at_least "--max-connections" 1 max_connections;
        Command.at_least "--max-frame-bytes" 1024 max_frame_bytes ];
    let token = or_die token in
    let listen =
      let where = "the Unix socket is always bound via --socket" in
      Option.map (endpoint ~tcp:("--listen", where)) listen
    in
    let session =
      try
        Serve.Session.create ?cache_dir ?cache_entries:cache_entries
          ?cache_bytes ()
      with
      | Sys_error msg -> or_die (Error ("cannot create cache directory: " ^ msg))
      | Invalid_argument msg -> or_die (Error msg)
    in
    let serve journal =
      let scheduler =
        Serve.Scheduler.create ?journal ~jobs ~max_jobs ~max_pending
          ?default_deadline_s:deadline session
      in
      let config =
        {
          d with
          cfg_token = token;
          cfg_max_connections = max_connections;
          cfg_max_frame_bytes = max_frame_bytes;
          cfg_idle_timeout_s =
            (if idle_timeout <= 0. then None else Some idle_timeout);
          cfg_write_timeout_s =
            (if write_timeout <= 0. then None else Some write_timeout);
        }
      in
      let server =
        try Serve.Server.start ~config ?listen ~socket scheduler
        with Unix.Unix_error (err, _, msg) -> or_die (cannot_listen socket err msg)
      in
      let stop _ = Serve.Server.stop server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (match Serve.Server.tcp_port server with
      | Some port ->
        Printf.eprintf "mrefine serve: listening on %s and tcp port %d%s\n%!"
          socket port
          (if token = None then " (no token!)" else "")
      | None -> Printf.eprintf "mrefine serve: listening on %s\n%!" socket);
      Serve.Server.run server;
      Ok ()
    in
    or_die
      (Command.with_journal journal
         ~meta:(fun () -> Serve.Scheduler.journal_meta)
         serve)
  in
  Cmd.v
    (info "serve"
       ~doc:
         "Run the persistent refinement daemon: a Unix-domain socket \
          speaking a newline-delimited JSON job protocol (submit / status \
          / result / cancel / stats / shutdown) over refine, lint, \
          explore, faults and litmus jobs.  One long-lived process keeps the \
          evaluation cache and every elaborated specification hot across \
          requests; with $(b,--journal), a killed daemon resumes its \
          in-flight jobs on restart.  With $(b,--listen) the same daemon \
          also serves TCP, guarded by a shared-secret token; SIGTERM \
          drains gracefully (stop accepting, finish or journal in-flight \
          jobs, exit).")
    Term.(
      const run $ socket_arg $ jobs_arg $ cache_dir_arg $ cache_entries_arg
      $ cache_bytes_arg $ journal_arg $ max_jobs_arg $ deadline_arg
      $ listen_arg $ token $ max_connections_arg
      $ idle_timeout_arg $ write_timeout_arg $ max_frame_bytes_arg
      $ max_pending_arg)

let client_cmd =
  let socket_arg =
    Arg.(
      value
      & opt string ".mrefine.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket to connect to.")
  in
  let submit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "submit" ] ~docv:"KIND"
          ~doc:"Submit a job: refine, lint, explore, faults (each needs \
                $(b,--spec)) or litmus.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:"Specification file; its text is embedded in the job.")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:"Client-chosen job id; resubmitting an id is idempotent.")
  in
  let arg_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "arg" ] ~docv:"KEY=VALUE"
          ~doc:"Extra job field, e.g. $(b,--arg parts=3), $(b,--arg \
                json=true), $(b,--arg models=[\"model1\"]).  VALUE is \
                parsed as JSON when possible, else taken as a string.  \
                Repeatable.")
  in
  let wait_arg =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:"After submitting (or with $(b,--result)), block until the \
                job is terminal and print its final reply.")
  in
  let print_output_arg =
    Arg.(
      value & flag
      & info [ "print-output" ]
          ~doc:"Print only the job's report text instead of the reply \
                JSON; exits non-zero unless the job is done.")
  in
  let job_op name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"ID" ~doc)
  in
  let status_arg = job_op "status" "Query one job's state." in
  let result_arg = job_op "result" "Fetch one job's result." in
  let cancel_arg = job_op "cancel" "Cancel one job." in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Fetch daemon statistics.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Check the daemon is alive.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Stop the daemon.")
  in
  let raw_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"JSON" ~doc:"Send one raw request line.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Connect over TCP instead of the Unix socket.")
  in
  let token =
    token_term
      ~doc:"Shared-secret token presented as the first frame (needed for \
            TCP daemons started with one)."
      ~file_doc:"Read the token from FILE (trailing whitespace stripped)."
  in
  let retries_arg =
    Arg.(
      value
      & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Reconnect-and-retry attempts after transport failures or \
                busy rejections (jittered exponential backoff, honoring \
                the daemon's $(i,retry_after_ms) hint).  0 disables \
                retrying.")
  in
  let retry_backoff_arg =
    Arg.(
      value
      & opt int 100
      & info [ "retry-backoff" ] ~docv:"MS"
          ~doc:"Base backoff before the first retry; doubles per attempt \
                with +/-50% jitter, capped at 10s.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request socket timeout; an expired request counts as \
                a failed attempt (and is retried when idempotent).")
  in
  let field_value raw =
    match Serve.Protocol.parse raw with
    | Ok v -> v
    | Error _ -> Serve.Protocol.String raw
  in
  let job_fields kind spec args =
    (* Litmus jobs run built-in shapes and take no spec; every other
       job kind refuses to run without one. *)
    let base =
      match (spec, kind) with
      | Some path, _ ->
        [ ("kind", Serve.Protocol.String kind);
          ("spec", Serve.Protocol.String (read_file path)) ]
      | None, "litmus" -> [ ("kind", Serve.Protocol.String kind) ]
      | None, _ -> or_die (Error "--submit needs --spec")
    in
    base
    @ List.map
        (fun arg ->
          match String.index_opt arg '=' with
          | None ->
            or_die (Error (Printf.sprintf "bad --arg %S (want KEY=VALUE)" arg))
          | Some i ->
            let value = String.sub arg (i + 1) (String.length arg - i - 1) in
            (String.sub arg 0 i, field_value value))
        args
  in
  let parse_reply raw =
    match Serve.Protocol.parse raw with
    | Ok reply -> reply
    | Error msg -> or_die (Error ("unreadable reply: " ^ msg))
  in
  let member key reply =
    match Serve.Protocol.member key reply with
    | Some (Serve.Protocol.String s) -> Some s
    | _ -> None
  in
  let print_reply ~print_output raw =
    if not print_output then print_endline raw
    else
      let reply = parse_reply raw in
      match member "output" reply with
      | Some out -> print_string out
      | None ->
        let state = Option.value (member "state" reply) ~default:"unknown" in
        let error =
          Option.fold ~none:"" ~some:(( ^ ) ": ") (member "error" reply)
        in
        or_die (Error (Printf.sprintf "job %s%s" state error))
  in
  let run socket connect_to token retries retry_backoff timeout submit spec
      id args wait print_output status result cancel stats ping shutdown raw =
    List.iter or_die
      [ Command.at_least "--retries" 0 retries;
        Command.at_least "--retry-backoff" 1 retry_backoff ];
    let token = or_die token in
    let endpoint =
      match connect_to with
      | None -> Serve.Server.Unix_path socket
      | Some s -> endpoint ~tcp:("--connect", "Unix sockets go via --socket") s
    in
    (* A write to a connection the daemon dropped must fail as EPIPE,
       which the client retries, not kill the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let client =
      Serve.Client.create ?token ~retries ~backoff_ms:retry_backoff
        ?timeout_s:timeout endpoint
    in
    let call ?resend req = or_die (Serve.Client.call ?resend client req) in
    let print_simple ?resend req = print_endline (call ?resend req) in
    match (submit, status, result, cancel, stats, ping, shutdown, raw) with
    | Some kind, None, None, None, false, false, false, None ->
      let job = Serve.Protocol.Obj (job_fields kind spec args) in
      let reply = or_die (Serve.Client.submit client ?id job) in
      if not wait then print_endline reply
      else begin
        let r = parse_reply reply in
        let id =
          match (member "id" r, member "error" r) with
          | Some id, _ -> id
          | None, e ->
            or_die (Error ("submit failed: " ^ Option.value e ~default:reply))
        in
        (* The wait survives daemon restarts: the result poll is
           idempotent, so a dropped connection just re-requests it. *)
        print_reply ~print_output
          (call (Serve.Protocol.Result { rs_id = id; rs_wait = true }))
      end
    | None, Some id, None, None, false, false, false, None ->
      print_simple (Serve.Protocol.Status id)
    | None, None, Some id, None, false, false, false, None ->
      print_reply ~print_output
        (call (Serve.Protocol.Result { rs_id = id; rs_wait = wait }))
    | None, None, None, Some id, false, false, false, None ->
      print_simple (Serve.Protocol.Cancel id)
    | None, None, None, None, true, false, false, None ->
      print_simple Serve.Protocol.Stats
    | None, None, None, None, false, true, false, None ->
      print_simple Serve.Protocol.Ping
    | None, None, None, None, false, false, true, None ->
      print_simple ~resend:false Serve.Protocol.Shutdown
    | None, None, None, None, false, false, false, Some line ->
      print_endline (or_die (Serve.Client.rpc ~resend:false client line))
    | _ ->
      or_die
        (Error
           "give exactly one of --submit, --status, --result, --cancel, \
            --stats, --ping, --shutdown or --raw")
  in
  Cmd.v
    (info "client"
       ~doc:
         "Talk to a running $(b,mrefine serve) daemon — over its Unix \
          socket or TCP ($(b,--connect), with $(b,--token)) — to submit \
          refine / lint / explore / faults jobs, poll or await their \
          results, cancel them, or fetch daemon statistics.  Transport \
          failures and busy rejections are retried with jittered \
          exponential backoff; submits pick a stable job id so retries \
          never double-execute work.")
    Term.(
      const run $ socket_arg $ connect_arg $ token $ retries_arg
      $ retry_backoff_arg $ timeout_arg $ submit_arg $ spec_arg $ id_arg
      $ arg_arg $ wait_arg $ print_output_arg $ status_arg $ result_arg
      $ cancel_arg $ stats_arg $ ping_arg $ shutdown_arg $ raw_arg)

let chaos_cmd =
  let listen_arg =
    Arg.(
      value
      & opt string "127.0.0.1:7464"
      & info [ "listen" ] ~docv:"ENDPOINT"
          ~doc:"Where the proxy listens: HOST:PORT or a Unix-socket \
                path (TCP port 0 picks an ephemeral port).")
  in
  let upstream_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "upstream" ] ~docv:"ENDPOINT"
          ~doc:"The real daemon to forward to: HOST:PORT or a \
                Unix-socket path.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Fault-schedule seed.  The fault of connection $(i,i) is \
                a pure function of (seed, i), so a failing run replays \
                exactly from its seed.")
  in
  let run listen upstream seed =
    let upstream =
      match upstream with
      | Some u -> endpoint u
      | None -> or_die (Error "--upstream is required")
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let proxy =
      try
        Serve.Chaos.start
          ~log:(fun i fault ->
            Printf.eprintf "mrefine chaos: conn %d: %s\n%!" i
              (Serve.Chaos.fault_to_string fault))
          ~listen:(endpoint listen) ~upstream ~seed ()
      with Unix.Unix_error (err, _, msg) -> or_die (cannot_listen listen err msg)
    in
    (match Serve.Chaos.port proxy with
    | Some port ->
      Printf.eprintf "mrefine chaos: tcp port %d -> %s (seed %d)\n%!" port
        (Serve.Server.endpoint_to_string upstream)
        seed
    | None ->
      Printf.eprintf "mrefine chaos: %s (seed %d)\n%!" listen seed);
    let stop = ref false in
    let handler _ = stop := true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
    while not !stop do
      Unix.sleepf 0.2
    done;
    Serve.Chaos.stop proxy
  in
  Cmd.v
    (info "chaos"
       ~doc:
         "Run a seeded fault-injecting proxy in front of an $(b,mrefine \
          serve) daemon: connections are dropped mid-frame, torn, \
          delayed, fed garbage or reset, on a schedule that is a pure \
          function of $(b,--seed).  Used to verify that clients with \
          idempotent retries converge to byte-identical results under \
          transport failure.")
    Term.(const run $ listen_arg $ upstream_arg $ seed_arg)

let () =
  let info =
    Cmd.info "mrefine" ~version:"1.0.0" ~exits
      ~doc:"Model refinement for hardware-software codesign."
  in
  (* One exit-status rule: 0 on success, 1 for every error or finding
     (a flag cmdliner cannot convert included), 125 for an internal
     error (an uncaught exception). *)
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [ parse_cmd; graph_cmd; partition_cmd; refine_cmd; simulate_cmd;
              cosim_cmd; typecheck_cmd; lint_cmd; export_cmd; quality_cmd;
              explore_cmd; faults_cmd; litmus_cmd; serve_cmd; client_cmd;
              chaos_cmd ])
     with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> 125)
