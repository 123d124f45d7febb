(* Workload refine-scale: the paper's core task on inputs large enough that
   refine, check and lint dominate.

   A seeded family of generated specifications, all in one size class
   (about 40 leaves, 30 variables, 5 statements per leaf — roughly 2.5x the
   medical system), is printed to source text once.  One op takes one
   (spec, model) pair through the whole chain a designer runs on the text:
   parse + validate, typecheck, access graph, greedy 2-way partition,
   refine, the refinement checks, print, the refinement lint, and
   co-simulation of the original against the refinement.  The op is
   correct when the checks pass and co-simulation finds the two
   equivalent.  Every op parses afresh, so its simulations always run on
   programs the kernel has never seen (compile + elaborate + run). *)

open Harness

let specs = 12
let warmup_ops = 8

type state = {
  sources : string array;  (** printed specifications *)
  lines : int array;  (** source lines per specification *)
  growth : float array;  (** per cycle position: refined / source lines *)
  diags : float array;  (** per cycle position: lint diagnostics *)
}

let size_class seed k =
  {
    Workloads.Generator.gen_seed = (seed * 1_000) + k;
    gen_vars = 30;
    gen_leaves = 40;
    gen_stmts = 5;
    gen_par_branches = 0;
  }

let count_lines s =
  List.length
    (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))

let models = Array.of_list Core.Model.all
let cycle = specs * Array.length models
let pair i = (i mod cycle / Array.length models, models.(i mod Array.length models))

let fail fmt = Printf.ksprintf failwith fmt

(* One op.  Its growth and diagnostic count are kept per cycle position:
   they are properties of the outputs, so they repeat exactly. *)
let op st i =
  let k, model = pair i in
  let span = Spans.with_span in
  let p =
    span "spec.parse" (fun () ->
        match Spec.Parser.program_of_string st.sources.(k) with
        | Error msg -> fail "parse: %s" msg
        | Ok p -> (
          match Spec.Program.validate p with
          | Ok () -> p
          | Error msgs -> fail "validate: %s" (String.concat "; " msgs)))
  in
  (match span "spec.typecheck" (fun () -> Spec.Typecheck.check p) with
  | Ok () -> ()
  | Error msgs -> fail "typecheck: %s" (String.concat "; " msgs));
  let g = span "agraph.build" (fun () -> Agraph.Access_graph.of_program p) in
  let part =
    span "partition.greedy" (fun () -> Partitioning.Greedy.run g ~n_parts:2)
  in
  let r = span "core.refine" (fun () -> Core.Refiner.refine p g part model) in
  (match span "core.check" (fun () -> Core.Check.run ~original:p r) with
  | Ok () -> ()
  | Error msgs -> fail "check: %s" (String.concat "; " msgs));
  let text =
    span "spec.print" (fun () ->
        Spec.Printer.program_to_string r.Core.Refiner.rf_program)
  in
  let diags =
    span "lint.refined" (fun () -> Lint.Registry.run_refinement ~original:p r)
  in
  if Spec.Diagnostic.has_errors diags then
    fail "lint: %d errors" (List.length (Spec.Diagnostic.errors diags));
  let v =
    span "sim.cosim" (fun () ->
        Sim.Cosim.check ~original:p ~refined:r.Core.Refiner.rf_program ())
  in
  if not v.Sim.Cosim.v_equivalent then
    fail "cosim: not equivalent: %s" (String.concat "; " v.Sim.Cosim.v_problems);
  st.growth.(i mod cycle) <-
    float_of_int (count_lines text) /. float_of_int st.lines.(k);
  st.diags.(i mod cycle) <- float_of_int (List.length diags)

let setup seed () =
  let sources =
    Array.init specs (fun k ->
        Spec.Printer.program_to_string
          (Workloads.Generator.program (size_class seed k)))
  in
  let st =
    {
      sources;
      lines = Array.map count_lines sources;
      growth = Array.make cycle 0.;
      diags = Array.make cycle 0.;
    }
  in
  for i = 0 to warmup_ops - 1 do
    op st (i * 5)
  done;
  st

(* Per-layer metrics.  Kilowords come from the first cycle only, which
   every traced run covers whole; timing medians use every traced op. *)
let layers st spans _samples =
  let selfs = Spans.self_times spans in
  let kw = window_kw ~cycle spans in
  let ms = self_ms selfs in
  let ops = named "op" spans in
  let coverage =
    median
      (List.map
         (fun o ->
           let covered =
             List.fold_left
               (fun acc s ->
                 if s.Spans.sp_parent = o.Spans.sp_id then acc +. Spans.duration s
                 else acc)
               0. spans
           in
           covered /. Spans.duration o)
         ops)
  in
  [
    metric "spec.parse_ms" "ms" (ms "spec.parse");
    metric "spec.parse_kw" "kword" (kw "spec.parse");
    metric "spec.typecheck_ms" "ms" (ms "spec.typecheck");
    metric "agraph.build_ms" "ms" (ms "agraph.build");
    metric "partition.greedy_ms" "ms" (ms "partition.greedy");
    metric "core.refine_ms" "ms" (ms "core.refine");
    metric "core.refine_kw" "kword" (kw "core.refine");
    metric "core.check_ms" "ms" (ms "core.check");
    metric "core.check_kw" "kword" (kw "core.check");
    metric "spec.print_ms" "ms" (ms "spec.print");
    metric "lint.refined_ms" "ms" (ms "lint.refined");
    metric "lint.refined_kw" "kword" (kw "lint.refined");
    metric "lint.diags" "count" (mean (Array.to_list st.diags));
    metric "sim.cosim_ms" "ms" (ms "sim.cosim");
    metric "sim.cosim_kw" "kword" (kw "sim.cosim");
    metric "refine.growth" "ratio" (mean (Array.to_list st.growth));
    metric "refine.span_coverage" "ratio" coverage;
  ]

let workload ~seed =
  {
    w_setup = setup seed;
    w_oracle = ignore;
    w_teardown = ignore;
    w_cycle = (fun _ -> cycle);
    w_class = (fun _ i -> Core.Model.name (snd (pair i)));
    w_op = op;
    w_peak_rss_mb = (fun _ -> peak_rss_mb "self");
    w_layers = layers;
  }
