(** A whole design-space sweep: enumerate candidates, evaluate them on a
    supervised {!Pool} of domains through a shared {!Cache}, and report
    the Pareto frontier over (max bus rate, spec growth, pins + gates,
    fragility) — all minimized.

    Determinism guarantee: for a fixed configuration and specification,
    the result — candidate order, every metric, the frontier and both
    report formats — is identical at any [jobs] count.  Only [sw_hits] /
    [sw_misses] may differ run-to-run (a warm persistent cache turns
    misses into hits); the values themselves never change.  The same
    holds across a kill-and-resume: a sweep resumed from its checkpoint
    journal reports the same results and frontier the uninterrupted
    sweep would have (replayed outcomes are flagged, never altered).

    Degradation guarantee: per-candidate deadlines and worker crashes
    never abort the sweep — the affected candidates surface as
    [Timed_out] / [Crashed] rows, the frontier is computed from the
    survivors, and [sw_coverage] < 1.0 plus the [sw_failures] taxonomy
    make the degradation explicit in both report formats. *)

type config = {
  seeds : int list;  (** partition-search seeds *)
  biases : Partitioning.Design_search.bias list;
  models : Core.Model.t list;
  n_parts : int;
  steps : int;  (** annealing steps per partition search *)
  jobs : int;  (** worker domains; 1 = sequential *)
  deadline_s : float option;
      (** per-candidate wall-clock budget ({!Evaluate.run}) *)
  retries : int;  (** supervised retries per crashing candidate *)
  backoff_s : float;  (** initial retry backoff ({!Pool.supervise}) *)
}

val default_config : config
(** Seeds [1;2;3], all biases, all four models, 2 parts, 4000 steps,
    1 job, no deadline, the {!Pool.default_supervisor} retry policy. *)

type t = {
  sw_results : Evaluate.result list;  (** enumeration order *)
  sw_frontier : Evaluate.result list;
      (** Pareto-optimal successful candidates, sorted by objectives *)
  sw_hits : int;
  sw_misses : int;
  sw_jobs : int;
  sw_replayed : int;  (** results replayed from the resume journal *)
  sw_coverage : float;
      (** definitive results / candidates; < 1.0 when anything timed out
          or crashed *)
  sw_failures : (string * int) list;
      (** failure taxonomy: {!Evaluate.failure_kind} → count, sorted *)
}

val objectives : Evaluate.metrics -> float array
(** The minimized objective vector:
    [[| max bus rate; growth; pins + gates; fragility |]]. *)

val journal_meta : config -> Spec.Ast.program -> string
(** The {!Checkpoint.Journal} meta string binding a sweep journal to the
    specification and the per-candidate search parameters ([n_parts],
    [steps]) — not to the candidate list, so a resumed sweep with more
    seeds or models still reuses every overlapping result. *)

val run :
  ?cache:Cache.t ->
  ?journal:Checkpoint.Journal.t ->
  ?evaluate:(Candidate.t -> Evaluate.result) ->
  config ->
  Spec.Ast.program ->
  t
(** Run the sweep.  Without [cache] an in-memory cache private to this
    sweep is used (identical-partition candidates still share work);
    pass a persistent cache to reuse results across sweeps and
    processes.

    With [journal] (opened under {!journal_meta}), candidates already
    recorded replay without evaluation and every definitive new outcome
    is checkpointed (fsynced) the moment its evaluation completes —
    kill the process at any point and a rerun with the same journal
    continues from the frontier of completed work.

    [evaluate] overrides the per-candidate evaluation function — the
    supervision, checkpointing and reporting paths are exercised by
    tests through it.  It must be deterministic per candidate and safe
    to call concurrently; the default is {!Evaluate.run} with this
    sweep's cache and deadline. *)

val to_text : ?top:int -> t -> string
(** Human-readable report: a coverage/failure summary, a per-candidate
    table and the frontier.  [top] truncates the candidate table (0 or
    absent = all rows). *)

val to_json : ?top:int -> t -> string
(** The same report as a self-contained JSON document (including
    [coverage], [replayed] and the [failures] taxonomy). *)
