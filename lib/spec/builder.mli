(** Convenience constructors for writing specifications directly in OCaml
    (used by the workloads, the examples and the tests).  For behaviors
    see {!Behavior.leaf}, {!Behavior.seq}, {!Behavior.par} and
    {!Behavior.arm}. *)

open Ast

val var : ?init:value -> string -> ty -> var_decl
val signal : ?init:value -> string -> ty -> sig_decl

val int_var : ?width:int -> ?init:int -> string -> var_decl
(** Default width 16. *)

val bool_var : ?init:bool -> string -> var_decl
val int_signal : ?width:int -> ?init:int -> string -> sig_decl
val bool_signal : ?init:bool -> string -> sig_decl

val param_in : string -> ty -> param
val param_out : string -> ty -> param

val proc :
  ?params:param list -> ?vars:var_decl list -> string -> stmt list -> proc_decl

val goto : ?cond:expr -> string -> transition
(** TOC arc to a sibling arm. *)

val complete : unit -> transition

val ( <-- ) : string -> expr -> stmt
(** Variable assignment, [x <-- e] is [x := e]. *)

val ( <== ) : string -> expr -> stmt
(** Signal assignment, delta-delayed. *)

val if_ : expr -> stmt list -> stmt list -> stmt
val while_ : expr -> stmt list -> stmt
val wait_until : expr -> stmt
val emit : string -> expr -> stmt
