(** Turning fault specifications into simulation hooks. *)

val counting : unit -> Sim.Engine.hooks * Sim.Commit_log.t
(** Hooks that carry only a fresh commit log, for the golden run: the
    kernel fills the log with the delta cycle of every committed update of
    every signal.  They act from delta 0 ([h_fault_from = None]), and
    {!Sim.Engine} may serve the run from its golden memo. *)

val occurrences : Sim.Commit_log.t -> (string, int) Hashtbl.t
(** How many committed updates each signal has in the golden log: what
    occurrence-based faults can aim at. *)

val hooks : ?golden:Sim.Commit_log.t -> Fault.spec list -> Sim.Engine.hooks
(** Hooks injecting the given faults: the signal-update intercept applies
    drop / delay / stuck-at decisions, the post-commit hook re-delivers
    delayed updates and flips memory bits.  Each hook is installed only
    when the faults need it: the intercept when some fault targets a
    signal (it then counts the committed updates of the targeted signals
    only, and passes every other update untouched), the post-commit hook
    when there is a bit flip or a delayed update.

    [h_fault_from] is [Some q], [q] the first delta cycle at which any of
    the faults can act: a bit flip after delta [d] acts at [d - 1], a
    stuck-at from delta [d] at [d], and occurrence [k] of a signal at the
    delta of its [k]-th commit in [golden] ([q = 0] without [golden]).
    The intercept ignores every commit before [q]; its counts start at
    the golden run's.  The hooks carry mutable state — build a fresh
    value for every simulation run. *)
