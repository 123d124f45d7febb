(** Width-narrowing pass (all warnings): [WIDTH001] when an assignment
    or signal assignment narrows its inferred source width, [WIDTH002]
    when a procedure-call transfer does (an [in] argument wider than
    its parameter, or an [out] parameter wider than the receiving
    variable).  With a flow summary in the context, a structurally
    narrowing transfer is suppressed when interval analysis proves the
    value fits the destination. *)

val width_of : (string -> Spec.Ast.ty option) -> Spec.Ast.expr -> int option
(** Structural width inference against a lookup of declared types (the
    innermost binding of each name): constants take the bits they need,
    references their declared width, arithmetic the widest operand;
    [None] for boolean-valued or unresolvable expressions.  Shared with
    {!Fixer}, which widens destinations until this inference reports no
    narrowing. *)

val pass : Pass.pass
