(** The event-driven simulation kernel.

    Leaves run on the bytecode register VM ({!Vm}).  Signals are
    interned to dense integer ids at startup; blocked leaves are parked
    under per-signal sensitivity sets; a maintained runnable queue
    replaces per-round tree walks; the structural advancement runs only
    when a leaf finishes.  Observable behavior — traces, final
    values, deadlock reports, delta and step counts, fault-campaign
    classifications — is bit-identical to the retained polling kernel
    ({!Reference}); the differential tests enforce this.

    All result/hook types are shared with {!Reference} through
    {!Runtime} and re-exported here so existing callers are unaffected. *)

open Spec

type config = Runtime.config = {
  max_steps : int;  (** total interpreter steps across all processes *)
  max_deltas : int;
  slice : int;  (** interpreter steps per process per scheduling round *)
  trace_signals : bool;
      (** record every committed signal change (for waveform dumps) *)
}

val default_config : config

type outcome = Runtime.outcome =
  | Completed
      (** every process that is not a registered server finished *)
  | Deadlock of string list
      (** blocked process descriptions, each including the waited-on
          signals and frame variables with their current values *)
  | Step_limit  (** the step or delta budget ran out *)
  | Cancelled  (** the [h_poll] hook asked the kernel to stop *)

type result = Runtime.result = {
  r_outcome : outcome;
  r_trace : Trace.event list;  (** the observable [emit] events, in order *)
  r_deltas : int;
  r_steps : int;
  r_final : (string * Ast.value) list;
      (** variable values at the end: program variables first, then every
          live behavior's declarations in preorder (first occurrence
          wins) *)
  r_signal_trace : (int * (string * Ast.value) list) list;
      (** with [trace_signals]: per delta cycle, the committed changes *)
}

(** Post-commit access to the live simulation state, handed to the
    [h_on_commit] hook: the signal store plus read/write access to the
    behavior-frame variables anywhere in the process tree.  Fault
    campaigns flip bits in generated memory storage through this. *)
type probe = Runtime.probe = {
  pr_delta : int;  (** the delta cycle just committed *)
  pr_signals : Sigtable.t;
  pr_read_var : string -> Ast.value option;
  pr_write_var : string -> Ast.value -> bool;
}

(** Fault-injection and supervision hooks.  [h_intercept] is installed as
    the signal store's update intercept (it sees every scheduled update at
    commit time and may drop or rewrite it); [h_on_commit] runs after
    every committed delta cycle; [h_poll] is the cooperative cancellation
    check, polled once per scheduling round — when it returns [true] the
    run stops with {!Cancelled} instead of spinning to the step limit.
    [h_fault_from] is the hooks' promise that they act on nothing before
    a delta cycle, which lets {!run} start from a checkpoint (see
    {!Runtime.hooks}).  [h_log] records every committed update, and a
    run with no other hooks but [h_poll] may be served from the golden
    memo (see {!run}). *)
type hooks = Runtime.hooks = {
  h_intercept : (delta:int -> string -> Ast.value -> Sigtable.action) option;
  h_on_commit : (probe -> unit) option;
  h_poll : (unit -> bool) option;
  h_fault_from : int option;
  h_log : Commit_log.t option;
}

val no_hooks : hooks

(** Scheduler-internal counters, exposed for the kernel's own tests and
    benchmarks (e.g. proving that a parked leaf is not busy-polled while
    nothing it waits on changes). *)
type sched_stats = {
  st_rounds : int;  (** scheduling rounds executed *)
  st_leaf_runs : int;  (** interpreter activations across all rounds *)
  st_wakes : int;  (** parked leaves re-armed by a signal change *)
  st_rebuilds : int;  (** leaf-table rebuilds after structural change *)
}

val session_cap : unit -> int
(** Capacity of the per-domain session cache: how many distinct physical
    programs keep their fully elaborated simulation state (frames and
    compiled bodies), their checkpoints and their golden memo alive
    between runs.  The least recently run program is evicted first.
    Defaults to 4 — enough for a CLI invocation's cosim pairs. *)

val set_session_cap : int -> unit
(** Widen (or narrow) the session cache, e.g. for a long-lived daemon
    serving many distinct specifications; takes effect on the next
    insertion in each domain.  The cap bounds elaborated state {e per
    worker domain}.
    @raise Invalid_argument when the cap is < 1. *)

val run :
  ?config:config ->
  ?hooks:hooks ->
  ?ordering:Memord.t ->
  Ast.program ->
  result
(** Simulate a validated program; leaves run on the bytecode register VM
    ({!Vm}).  [ordering] interposes weak port-ordering semantics on the
    commit path ({!Memord}); omitted, the kernel is sequentially
    consistent and byte-identical to before.  Sessions are cached per
    physical program (see {!session_cap}).

    Checkpoints.  When the hooks promise to act on nothing before delta
    [q] ([h_fault_from = Some q]) and no [ordering] is given, the run is
    the hook-free run up to [q].  It then records a checkpoint of the
    kernel state every {!checkpoint_spacing} deltas up to [q], in the
    program's session, and a later run of the same session starts from
    the latest checkpoint at or before its own [q] that its [max_steps]
    and [max_deltas] admit, instead of from delta 0.  The result and the
    {!sched_stats} are those of a run from delta 0; only [h_poll] is
    called fewer times.  Checkpoints belong to one [slice] and
    [trace_signals] setting; a run with another setting drops them.  A
    session keeps at most 32 (when full, every other one goes and the
    spacing doubles), and they go with the session.  Runs
    with [h_fault_from = None] or an [ordering] neither record nor use
    checkpoints.

    Golden memo.  A run whose only hooks are an [h_log] (plus,
    optionally, [h_poll]) and that has no [ordering] is pure: its result,
    {!sched_stats} and commit log are a function of the program and the
    [config].  The program's session keeps one such run, keyed by the
    whole [config], and a later qualifying run with an equal [config]
    returns the stored result and counters and appends the stored commits
    to its log without simulating.  It still calls [h_poll] once; if that
    says stop, it simulates as without the memo (and so ends
    {!Cancelled}).  A qualifying run with another [config] simulates and
    replaces the entry; cancelled runs and runs that raise are never
    stored.  The entry goes with its session: on eviction, and with the
    throwaway session a reentrant run gets.  {!Reference} keeps no memo.
    @raise Interp.Run_error on dynamic errors (unbound names, type
    confusion) — run {!Spec.Program.validate} and {!Spec.Typecheck.check}
    first to rule these out statically. *)

val checkpoint_spacing : int
(** Delta spacing of a session's first checkpoints: 64. *)

val checkpoint_deltas : Ast.program -> int list
(** The deltas of the checkpoints this domain's session of the program
    holds, ascending ([[]] without a session). *)

type sessions_stats = {
  se_golden_hits : int;  (** qualifying runs served from the golden memo *)
  se_golden_misses : int;  (** qualifying runs simulated *)
  se_sessions : int;  (** sessions resident *)
  se_checkpoints : int;  (** checkpoints those sessions hold *)
}

val sessions_stats : unit -> sessions_stats
(** The calling domain's session store: its golden-memo counters since
    the domain started, and what it holds now.  Other domains' sessions
    are not seen. *)

val run_stats :
  ?config:config ->
  ?hooks:hooks ->
  ?ordering:Memord.t ->
  Ast.program ->
  result * sched_stats
(** {!run}, also returning the scheduler counters. *)

val outcome_to_string : outcome -> string
