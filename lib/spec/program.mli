(** Whole-program operations: construction, lookups and static
    validation. *)

open Ast

val make :
  ?vars:var_decl list ->
  ?signals:sig_decl list ->
  ?procs:proc_decl list ->
  ?servers:string list ->
  string ->
  behavior ->
  program
(** [make name top] builds a program named [name] with top behavior
    [top]. *)

val lookup_var : program -> string -> var_decl option
(** Program-level (partitionable) variable. *)

val lookup_signal : program -> string -> sig_decl option

val lookup_behavior : program -> string -> behavior option

val var_names : program -> string list
(** Names of program-level variables, in declaration order. *)

val is_server : program -> string -> bool

val validate : program -> (unit, string list) result
(** Static sanity checks: unique behavior / variable / signal / procedure
    names, resolvable TOC targets, resolvable references in every
    expression (respecting scoping: program variables and signals are
    global, behavior variables are visible in their subtree, procedure
    parameters and locals inside the procedure), and procedure calls with
    matching arity and argument modes.  Returns all violations found. *)

val validate_exn : program -> program
(** Identity when {!validate} succeeds.
    @raise Invalid_argument with the concatenated messages otherwise. *)
