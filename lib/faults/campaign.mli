(** Deterministic, seeded fault-injection campaigns against a refined
    design.  One golden (fault-free) run learns the design's commit log
    and reference behavior; then, per seed and fault class, one randomly
    drawn (seed-reproducible) fault is injected and the outcome
    classified against the golden run.

    The golden run's only hooks are its commit log ({!Inject.counting})
    and the cancellation poll, so under sequentially consistent commits
    {!Sim.Engine} serves a repeated campaign's golden run from the warm
    session's golden memo instead of simulating it again; under a weak
    [cf_ordering] it always simulates. *)

type outcome =
  | Survived  (** same observable behavior, no recovery action needed *)
  | Detected_recovered
      (** same observable behavior, reached through watchdog retries or
          TMR repairs (the reserved-marker count grew) *)
  | Deadlock
      (** the design hung or stopped — including deliberate [WDG_ABORT]
          fail-stops of the hardened protocol, and faulty runs halted by
          an evaluation error such as a division by zero (their
          [run_deltas] is 0: the kernel reports no count) *)
  | Silent_corruption
      (** completed, but the filtered trace or the (TMR-voted) final
          memory state differs from the golden run: the worst case *)
  | Step_limit  (** the simulation budget ran out *)
  | Timed_out
      (** the campaign's wall-clock deadline (or an external cancellation
          poll) fired during this run; the result is not definitive and a
          resumed campaign retries it.  The campaign stops after the
          first such run. *)

val outcome_name : outcome -> string

type run = {
  run_seed : int;
  run_class : Fault.cls;
  run_faults : Fault.spec list;
  run_outcome : outcome;
  run_deltas : int;
}

type report = {
  rp_design : string;  (** refined program name *)
  rp_hardened : bool;
  rp_seeds : int;
  rp_runs : run list;
  rp_robustness : float;
      (** fraction of runs classified survived or recovered *)
}

type config = {
  cf_seeds : int;  (** seeded rounds, one fault per class each *)
  cf_base_seed : int;
  cf_classes : Fault.cls list;
  cf_sim : Sim.Engine.config;  (** budget of the golden run *)
  cf_deadline_s : float option;
      (** wall-clock budget of the whole campaign: once exceeded, the
          running simulation is cancelled ({!Sim.Runtime.hooks.h_poll}),
          the run classified {!Timed_out}, and no further run started *)
  cf_poll : (unit -> bool) option;
      (** external cooperative cancellation, polled with the deadline *)
  cf_ordering : Sim.Memord.policy;
      (** port-ordering semantics of the design's multi-port memories:
          every run — golden and faulty alike — executes under this
          policy with the same scheduler seed ([cf_base_seed]), so a
          hardened design is judged on whether its observable behavior
          stays interleaving-independent.  {!Sim.Memord.Sc} (the
          default) leaves the kernels' commit path untouched. *)
}

val default_config : config
(** 8 seeds, base seed 1, every class, default engine budget, no
    deadline, [sc] port ordering. *)

(** What a campaign can aim at, enumerated from the refined design. *)
type targets = {
  tg_handshakes : string list;
  tg_lines : (string * int) list;
  tg_storage : (string * int) list;
  tg_acks : string list;
}

val enumerate : Core.Refiner.t -> (string, int) Hashtbl.t -> targets
(** Enumerate injection targets, keeping only signals with at least one
    committed update in the golden run (the occurrence table
    {!Inject.occurrences} of the golden commit log). *)

val classify :
  storage:(string * int) list ->
  golden:Sim.Engine.result ->
  Sim.Engine.result ->
  outcome
(** Classify one faulty run against the golden run: reserved recovery
    markers are filtered from both traces and TMR-shadowed storage is
    majority-voted before comparison. *)

exception Campaign_error of string

val journal_meta : config -> Core.Refiner.t -> string
(** The {!Checkpoint.Journal} meta string binding a campaign journal to
    the refined program and every configuration field that determines an
    outcome — {!Checkpoint.Journal.open_} refuses to resume a journal
    written under different inputs. *)

val run :
  ?config:config ->
  ?simulate:
    (config:Sim.Engine.config ->
    hooks:Sim.Engine.hooks ->
    ?ordering:Sim.Memord.t ->
    Spec.Ast.program ->
    Sim.Engine.result) ->
  ?journal:Checkpoint.Journal.t ->
  Core.Refiner.t ->
  report
(** Execute the campaign.  Fully deterministic: same refined design, same
    configuration — same report.  [simulate] defaults to the event-driven
    kernel ({!Sim.Engine.run}); the differential tests pass the polling
    kernel ({!Sim.Reference.run}) to check that both classify identically.
    With [journal] (opened under {!journal_meta}), runs already recorded
    replay without simulating and every {e definitive} new run — any
    outcome but {!Timed_out} — is checkpointed as it completes, so a
    killed campaign resumes from where it died with an identical report.
    A faulty run that raises [Spec.Expr.Eval_error] classifies
    {!Deadlock}.
    @raise Campaign_error when the golden run does not complete (including
    a deadline firing during the golden run) or raises
    [Spec.Expr.Eval_error]. *)

val survival_fraction : report -> Fault.cls -> float
(** Fraction of the class's runs classified survived or recovered
    (1.0 when the class has no runs). *)

val to_text : report -> string
val to_json : report -> string
