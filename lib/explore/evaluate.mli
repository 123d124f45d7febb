(** End-to-end evaluation of one design-space candidate: search the
    partition ({!Partitioning.Design_search}), refine it to the
    candidate's implementation model ({!Core.Refiner}), run the
    structural checks ({!Core.Check}), and measure quality — maximum
    required bus transfer rate ({!Estimate.Rates}), specification growth
    ({!Core.Metrics}) and pin/gate demand ({!Core.Quality}).

    The expensive tail (refine → check → quality) is memoized through
    {!Cache} under a content-hashed key of (spec digest, canonical
    partition, model), so two candidates whose annealing runs land on
    the same partition — or a repeated sweep in a later process, with a
    persistent cache — share one refinement.  Lint pass results are
    additionally memoized by the digest of the {e refined} program, next
    to the refinement entries, so candidates that refine to identical
    model skeletons are linted once.  Everything here is deterministic:
    same candidate, same result, cached or not. *)

type metrics = {
  e_locals : int;  (** local variables of the searched partition *)
  e_globals : int;  (** global variables of the searched partition *)
  e_comm_bits : int;  (** cross-partition traffic, bits *)
  e_max_bus_rate : float;  (** highest required bus rate, Mbit/s *)
  e_bus_count : int;  (** buses instantiated by the refinement *)
  e_memories : int;  (** memory behaviors generated *)
  e_lines : int;  (** lines of the refined specification *)
  e_growth : float;  (** refined-over-original line ratio *)
  e_pins : int;  (** summed component pin demand *)
  e_gates : int;  (** summed ASIC gate demand *)
  e_software_bytes : int;  (** summed processor code size *)
  e_exec_seconds : float;  (** summed estimated execution time *)
  e_check_ok : bool;  (** {!Core.Check} found no violation *)
  e_lint_errors : int;  (** error-severity lint diagnostics on the output *)
  e_lint_warnings : int;  (** warning-severity lint diagnostics *)
  e_live_dead_stores : int;
      (** flow-only [LIVE005] findings: reachable stores overwritten
          before any read *)
  e_live_write_only : int;
      (** flow-only [LIVE006] findings: variables written but never read *)
  e_robustness : float;
      (** survived-or-recovered fraction of a small fixed fault campaign
          ({!Faults.Campaign}); 0.0 when the design cannot be campaigned *)
}

(** Why a candidate has no metrics.  {!Refine_failed} is a {e definitive}
    property of the candidate (cacheable, journalable); {!Timed_out} and
    {!Crashed} describe one particular execution and are retried by a
    resumed sweep. *)
type failure =
  | Refine_failed of string  (** refinement itself rejected the candidate *)
  | Timed_out of float
      (** the per-candidate deadline fired; payload = seconds elapsed *)
  | Crashed of { cr_exn : string; cr_backtrace : string; cr_attempts : int }
      (** the evaluation raised on every supervised attempt and was
          quarantined (constructed by {!Sweep} from {!Pool.failure}) *)

val failure_kind : failure -> string
(** Stable taxonomy label: ["refine-error"], ["timeout"] or ["crash"]. *)

val failure_message : failure -> string

val definitive : (metrics, failure) Stdlib.result -> bool
(** Whether the outcome may be cached, journaled and replayed on resume. *)

type result = {
  r_candidate : Candidate.t;
  r_outcome : (metrics, failure) Stdlib.result;
  r_cached : bool;  (** the refine→quality tail came from the cache *)
  r_replayed : bool;  (** the outcome came from a resume journal *)
}

type ctx
(** Shared per-sweep context: the specification, its access graph and
    its printed-form digest. *)

val make_ctx : Spec.Ast.program -> ctx
(** Derive the access graph and spec digest once for a whole sweep.
    Each candidate uses {!default_alloc} for its own part count, which
    the candidate's cache key determines. *)

val graph : ctx -> Agraph.Access_graph.t
(** The specification's access graph, built once by {!make_ctx}. *)

val default_alloc : n_parts:int -> Arch.Allocation.t
(** The paper's shape: component 0 an Intel8086-class processor, every
    other component a 10k-gate ASIC. *)

val spec_digest : Spec.Ast.program -> string
(** Content digest of the printed specification. *)

val partition_of : ctx -> Candidate.t -> Partitioning.Partition.t
(** The candidate's partition: a fixed-seed {!Partitioning.Design_search}
    annealing run (deterministic). *)

val cache_key :
  spec_digest:string ->
  partition:Partitioning.Partition.t ->
  model:Core.Model.t ->
  string
(** The memoization key: hex digest over the spec digest, the canonical
    (sorted) object→partition assignment, and the model name. *)

val run :
  ?cache:Cache.t ->
  ?deadline_s:float ->
  ?poll:(unit -> bool) ->
  ctx ->
  Candidate.t ->
  result
(** Evaluate one candidate, consulting [cache] for the refinement tail.
    Never raises: refiner errors surface as [Error (Refine_failed _)].

    With [deadline_s], the evaluation carries a cooperative wall-clock
    budget: it is checked between pipeline stages and threaded into the
    robustness probe's simulation kernels ({!Sim.Runtime.hooks.h_poll}),
    so a runaway simulation is cancelled mid-run.  An expired candidate
    returns [Error (Timed_out elapsed)] and {e nothing} is cached — a
    later, unhurried evaluation recomputes it from scratch.

    [poll] is an external cooperative cancel signal checked at the same
    checkpoints (and or-ed into the kernels' [h_poll]): the [mrefine
    serve] scheduler threads a job's cancel flag through it so an
    explore job cancelled mid-sweep stops within one pipeline stage.
    A cancelled candidate also surfaces as [Error (Timed_out _)]. *)
