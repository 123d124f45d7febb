(** Structural invariant checks on a refinement result, beyond
    {!Spec.Program.validate}: no leftover top-level variables, an arbiter
    exactly when a bus has several masters, the model's bus-count bound,
    registered servers, no remaining direct accesses to partitioned
    variables outside the memories, validity and well-typedness of the
    refined output.  Exercised directly by the failure-injection tests.

    Codes: [REF001] leftover program variables, [REF002] bus-count bound
    exceeded, [REF003] unregistered or missing server, [REF004] direct
    access to a partitioned variable, [CONT001] multi-master bus without
    an arbiter, [CONT002] arbiter on a single-master bus, [NAME001]
    name-resolution failure, plus the [TYPE00x] codes of
    {!Spec.Typecheck}. *)

type violation = string

val diagnostics :
  original:Spec.Ast.program -> Refiner.t -> Spec.Diagnostic.t list
(** All violations found, sorted by {!Spec.Diagnostic.compare}
    (empty = sound refinement result).  The structural checks run on
    every call; the [NAME001] and [TYPE00x] findings come from
    {!Refiner.verdict}, so a record straight from {!Refiner.refine} is
    not validated again and is typechecked once over any number of
    calls, while a record rebuilt with another [rf_program] is checked
    afresh. *)

val run : original:Spec.Ast.program -> Refiner.t -> (unit, violation list) result
(** String shim over {!diagnostics}: the messages in the same sorted
    (severity, code, location) order.  Any diagnostic makes the result
    [Error]. *)
