(** Static type checking of specifications.

    Two type families: booleans and sized integers.  Widths are
    implementation hints for bus sizing, so any integer width is
    compatible with any other; booleans and integers never mix.  The
    checker validates expressions, statements, TOC conditions and
    procedure calls under proper scoping, and returns every violation
    found.  Refined outputs of the refiner are expected to typecheck —
    {!Core.Check.run} asserts it.

    Violations carry stable codes: [TYPE001] unbound name, [TYPE002]
    class mismatch, [TYPE003] array misuse, [TYPE004] variable/signal
    kind confusion, [TYPE005] malformed procedure call. *)

type error = string

val diagnostics : Ast.program -> Diagnostic.t list
(** All violations found, sorted by {!Diagnostic.compare} (empty = well
    typed).  Run {!Program.validate} first for name-resolution errors
    with better context. *)

val check : Ast.program -> (unit, error list) result
(** String-compatible shim over {!diagnostics}: the diagnostic messages
    in the same sorted order. *)
