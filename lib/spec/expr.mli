(** Operations on expressions: smart constructors, evaluation, traversal,
    substitution and pretty-printing. *)

open Ast

(** {1 Smart constructors} *)

val int : int -> expr
val bool : bool -> expr
val tru : expr
val fls : expr
val ref_ : string -> expr

val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( mod ) : expr -> expr -> expr
val ( = ) : expr -> expr -> expr
val ( <> ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( <= ) : expr -> expr -> expr
val ( > ) : expr -> expr -> expr
val ( >= ) : expr -> expr -> expr
val ( && ) : expr -> expr -> expr
val ( || ) : expr -> expr -> expr
val neg : expr -> expr
val not_ : expr -> expr

(** {1 Evaluation} *)

exception Eval_error of string
(** Raised on unbound references, type mismatches or division by zero. *)

val eval :
  ?lookup_idx:(string -> int -> value option) ->
  lookup:(string -> value option) ->
  expr ->
  value
(** [eval ~lookup e] evaluates [e], resolving references through [lookup]
    and array reads through [lookup_idx] (which defaults to failing).
    @raise Eval_error on unbound references or ill-typed operations. *)

val vint : int -> Ast.value
(** [VInt n], interned for small [n] — structurally identical to a fresh
    [VInt n], but hot loops reuse one block. *)

val vbool : bool -> Ast.value
(** The interned [VBool] blocks. *)

val apply_binop : Ast.binop -> Ast.value -> Ast.value -> Ast.value
(** One binary operation on values, exactly as {!eval} applies it —
    including the [And]/[Or] strict forms (both operands already
    evaluated).  The bytecode backend dispatches through this so value
    interning and error messages stay shared.
    @raise Eval_error on type mismatches, division or modulo by zero. *)

val apply_unop : Ast.unop -> Ast.value -> Ast.value
(** @raise Eval_error on type mismatches. *)

val eval_const : expr -> value option
(** [eval_const e] is [Some v] when [e] contains no references and
    evaluates without error. *)

val as_int : value -> int
(** @raise Eval_error if the value is not an integer. *)

(** {1 Traversal} *)

val refs : expr -> string list
(** All referenced names (including indexed array bases), in order of
    first occurrence, without duplicates.  Computed afresh on every call:
    the bytecode VM classifies each wait site once, at compile time. *)

val exists_ref : (string -> bool) -> expr -> bool
(** [exists_ref f e] is true when [f] holds for some name {!refs} lists,
    without building the list. *)

val rename : (string -> string) -> expr -> expr
(** [rename f e] replaces every [Ref x] with [Ref (f x)]. *)

val subst : string -> expr -> expr -> expr
(** [subst x r e] replaces every [Ref x] in [e] with [r]. *)

val size : expr -> int
(** Number of AST nodes, used by the size metrics. *)

(** {1 Printing} *)

val add_expr : Buffer.t -> expr -> unit
(** Append the concrete syntax, with minimal parentheses; the output
    re-parses to the same expression. *)

val add_value : Buffer.t -> value -> unit

val pp : Format.formatter -> expr -> unit
(** {!add_expr} on a formatter. *)

val pp_value : Format.formatter -> value -> unit

val to_string : expr -> string

val binop_symbol : binop -> string
(** Concrete-syntax spelling of a binary operator. *)
