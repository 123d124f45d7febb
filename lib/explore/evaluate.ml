(** Candidate evaluation: partition search, refinement, structural check
    and quality measurement, with the refinement tail memoized.  See the
    interface for the cache-key and determinism contracts. *)

open Partitioning

type metrics = {
  e_locals : int;
  e_globals : int;
  e_comm_bits : int;
  e_max_bus_rate : float;
  e_bus_count : int;
  e_memories : int;
  e_lines : int;
  e_growth : float;
  e_pins : int;
  e_gates : int;
  e_software_bytes : int;
  e_exec_seconds : float;
  e_check_ok : bool;
  e_lint_errors : int;
  e_lint_warnings : int;
  e_live_dead_stores : int;
  e_live_write_only : int;
  e_robustness : float;
}

type failure =
  | Refine_failed of string
  | Timed_out of float
  | Crashed of { cr_exn : string; cr_backtrace : string; cr_attempts : int }

let failure_kind = function
  | Refine_failed _ -> "refine-error"
  | Timed_out _ -> "timeout"
  | Crashed _ -> "crash"

let failure_message = function
  | Refine_failed msg -> msg
  | Timed_out elapsed ->
    Printf.sprintf "deadline exceeded after %.2fs" elapsed
  | Crashed c ->
    Printf.sprintf "%s (quarantined after %d attempts)" c.cr_exn
      c.cr_attempts

(* Definitive outcomes are properties of the candidate itself and may be
   cached, journaled and replayed; timeouts and crashes are properties of
   one particular execution and must be retried by a resumed sweep. *)
let definitive = function
  | Ok _ | Error (Refine_failed _) -> true
  | Error (Timed_out _ | Crashed _) -> false

type result = {
  r_candidate : Candidate.t;
  r_outcome : (metrics, failure) Stdlib.result;
  r_cached : bool;
  r_replayed : bool;
}

(* Cooperative per-candidate deadline: raised at evaluation checkpoints
   and converted to a [Timed_out] outcome in {!run} — never cached. *)
exception Deadline

type ctx = {
  cx_spec : Spec.Ast.program;
  cx_graph : Agraph.Access_graph.t;
  cx_digest : string;
  cx_lines : int;  (** [Printer.line_count cx_spec] *)
}

let text_digest text = Digest.to_hex (Digest.string text)
let spec_digest p = text_digest (Spec.Printer.program_to_string p)

let make_ctx spec =
  let printed = Spec.Printer.program_to_string spec in
  {
    cx_spec = spec;
    cx_graph = Agraph.Access_graph.of_program spec;
    cx_digest = text_digest printed;
    cx_lines = Spec.Printer.count_lines printed;
  }

let graph ctx = ctx.cx_graph

let default_alloc ~n_parts =
  Arch.Allocation.make
    (List.init n_parts (fun i ->
         if i = 0 then Arch.Catalog.i8086 else Arch.Catalog.asic_10k))

let partition_of ctx (c : Candidate.t) =
  Design_search.run ~seed:c.Candidate.c_seed ~steps:c.Candidate.c_steps
    ctx.cx_graph ~n_parts:c.Candidate.c_n_parts ~bias:c.Candidate.c_bias

(* Canonical partition text: [Partition.objects] is sorted by object, so
   two equal partitions print identically however they were built. *)
let partition_repr part =
  String.concat ";"
    (Printf.sprintf "n=%d" (Partition.n_parts part)
    :: List.map
         (fun (o, i) -> Printf.sprintf "%s=%d" (Partition.obj_name o) i)
         (Partition.objects part))

let cache_key ~spec_digest ~partition ~model =
  Checkpoint.Blob.digest
    [ spec_digest; partition_repr partition; Core.Model.name model ]

let max_bus_rate env plan =
  List.fold_left
    (fun acc (b : Core.Bus_plan.bus) ->
      Float.max acc (Estimate.Rates.bus_rate_mbps env b.Core.Bus_plan.bus_edges))
    0.0 plan.Core.Bus_plan.bp_buses

let quality_totals (q : Core.Quality.t) =
  List.fold_left
    (fun (pins, gates, sw, secs) (cq : Core.Quality.component_quality) ->
      ( pins + cq.Core.Quality.cq_pins,
        gates + Option.value ~default:0 cq.Core.Quality.cq_gates,
        sw + Option.value ~default:0 cq.Core.Quality.cq_software_bytes,
        secs +. cq.Core.Quality.cq_exec_seconds ))
    (0, 0, 0, 0.0) q.Core.Quality.q_components

(* A small fixed fault campaign per candidate: two seeds over the two
   cheapest-to-classify classes.  Deterministic (seeded), so it belongs
   in the memoized tail; designs that cannot complete a golden run
   ([Campaign_error]) score 0.0 rather than failing the evaluation; any
   other exception is a bug and propagates, so the candidate ends
   [Crashed].  [poll] threads the
   candidate's deadline into the simulation kernels — a runaway refined
   design is cancelled mid-run and surfaces as {!Deadline} rather than
   stalling the worker until the step limit. *)
let probe_robustness ?poll (r : Core.Refiner.t) =
  let config =
    {
      Faults.Campaign.default_config with
      Faults.Campaign.cf_seeds = 2;
      cf_classes = [ Faults.Fault.Drop_handshake; Faults.Fault.Bit_flip ];
      cf_poll = poll;
    }
  in
  let expired () = match poll with Some f -> f () | None -> false in
  match Faults.Campaign.run ~config r with
  | report ->
    if
      List.exists
        (fun rn ->
          rn.Faults.Campaign.run_outcome = Faults.Campaign.Timed_out)
        report.Faults.Campaign.rp_runs
    then raise Deadline
    else report.Faults.Campaign.rp_robustness
  | exception Deadline -> raise Deadline
  | exception Faults.Campaign.Campaign_error _ ->
    if expired () then raise Deadline else 0.0

(* Lint pass results memoized by the *output* text: different partitions
   of the same spec routinely refine to structurally identical model
   skeletons, and the outer (spec, partition, model) key cannot see that.
   Keyed next to the refinement entries in the same cache, under a
   distinct key domain. *)
let lint_counts ?cache ~printed refined =
  let compute () =
    let lint =
      Lint.Registry.run ~phase:Lint.Registry.Post ~typecheck:false ~flow:true
        refined
    in
    let by_code c =
      List.length
        (List.filter
           (fun d -> String.equal d.Spec.Diagnostic.d_code c)
           lint)
    in
    ( Spec.Diagnostic.count Spec.Diagnostic.Error lint,
      Spec.Diagnostic.count Spec.Diagnostic.Warning lint,
      by_code "LIVE005",
      by_code "LIVE006" )
  in
  match cache with
  | None -> compute ()
  | Some cache ->
    let key =
      Checkpoint.Blob.digest [ "lint"; text_digest printed ]
    in
    fst (Cache.find_or_add ~count_stats:false cache key compute)

(* The memoized tail: everything downstream of the partition.  Pure in
   (spec, partition, model) — exactly what the cache key covers; the
   deadline checkpoints can only abort it (via {!Deadline}, which
   propagates out of the cache so nothing transient is ever stored),
   never change its value.  The allocation follows from the partition's
   part count. *)
let refine_and_measure ?cache ?poll ~checkpoint ctx part
    (model : Core.Model.t) =
  let alloc = default_alloc ~n_parts:(Partition.n_parts part) in
  match Core.Refiner.refine ctx.cx_spec ctx.cx_graph part model with
  | exception Core.Refiner.Refine_error msg -> Error (Refine_failed msg)
  | r ->
    checkpoint ();
    let check_ok =
      match Core.Check.run ~original:ctx.cx_spec r with
      | Ok () -> true
      | Error _ -> false
    in
    checkpoint ();
    let refined = r.Core.Refiner.rf_program in
    (* The refined text is printed once: the lint memo key and the line
       count both read it. *)
    let printed = Spec.Printer.program_to_string refined in
    let lines = Spec.Printer.count_lines printed in
    (* Structural lint of the refined output (the typecheck part is
       already inside Check.run / e_check_ok), memoized by output text. *)
    let lint_errors, lint_warnings, live_dead_stores, live_write_only =
      lint_counts ?cache ~printed refined
    in
    checkpoint ();
    let env = Estimate.Rates.make_env ctx.cx_spec alloc part in
    let plan = r.Core.Refiner.rf_plan in
    let q = Core.Quality.of_refinement ~alloc r in
    let pins, gates, sw, secs = quality_totals q in
    let cls = Classify.report part in
    Ok
      {
        e_locals = List.length cls.Classify.locals;
        e_globals = List.length cls.Classify.globals;
        e_comm_bits = Cost.comm_bits part;
        e_max_bus_rate = max_bus_rate env plan;
        e_bus_count = List.length r.Core.Refiner.rf_buses;
        e_memories = List.length r.Core.Refiner.rf_memories;
        e_lines = lines;
        e_growth = Core.Metrics.line_ratio ~original:ctx.cx_lines ~refined:lines;
        e_pins = pins;
        e_gates = gates;
        e_software_bytes = sw;
        e_exec_seconds = secs;
        e_check_ok = check_ok;
        e_lint_errors = lint_errors;
        e_lint_warnings = lint_warnings;
        e_live_dead_stores = live_dead_stores;
        e_live_write_only = live_write_only;
        e_robustness = probe_robustness ?poll r;
      }

let run ?cache ?deadline_s ?poll:external_poll ctx (c : Candidate.t) =
  let started = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. started in
  (* One combined cooperative-cancellation check: the per-candidate
     deadline or an external cancel signal (a served job being
     cancelled).  Either way the outcome is the non-definitive
     [Timed_out] — never cached, retried by an unhurried rerun. *)
  let poll =
    match (deadline_s, external_poll) with
    | None, None -> None
    | Some limit, None -> Some (fun () -> elapsed () > limit)
    | None, Some f -> Some f
    | Some limit, Some f -> Some (fun () -> f () || elapsed () > limit)
  in
  let checkpoint () =
    match poll with Some f when f () -> raise Deadline | _ -> ()
  in
  match
    (* Check before the partition search too: a cancelled or expired
       candidate must not pay a full annealing run first. *)
    checkpoint ();
    let part = partition_of ctx c in
    checkpoint ();
    let model = c.Candidate.c_model in
    let compute () =
      refine_and_measure ?cache ?poll ~checkpoint ctx part model
    in
    (match cache with
    | None -> (compute (), false)
    | Some cache ->
      let key = cache_key ~spec_digest:ctx.cx_digest ~partition:part ~model in
      Cache.find_or_add cache key compute)
  with
  | outcome, cached ->
    { r_candidate = c; r_outcome = outcome; r_cached = cached;
      r_replayed = false }
  | exception Deadline ->
    {
      r_candidate = c;
      r_outcome = Error (Timed_out (elapsed ()));
      r_cached = false;
      r_replayed = false;
    }
