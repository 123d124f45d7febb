(** Turning fault specifications into simulation hooks. *)

val hooks : Fault.spec list -> Sim.Engine.hooks
(** Hooks injecting the given faults: the signal-update intercept applies
    drop / delay / stuck-at decisions, the post-commit hook re-delivers
    delayed updates and flips memory bits.  Each hook is installed only
    when the faults need it: the intercept when some fault targets a
    signal (it then counts the committed updates of the targeted signals
    only, and passes every other update untouched), the post-commit hook
    when there is a bit flip or a delayed update.  The hooks carry
    mutable state — build a fresh value for every simulation run. *)

val counting : unit -> Sim.Engine.hooks * (string, int) Hashtbl.t
(** Pass-through hooks that count every signal's committed updates, for
    the golden (fault-free) run: the table tells the campaign how many
    occurrences each signal has to aim at. *)
