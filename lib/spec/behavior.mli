(** Operations on behavior trees: lookup, traversal and surgical
    replacement.  Behavior names are assumed unique within a program
    (checked by {!Program.validate}). *)

open Ast

val leaf : ?vars:var_decl list -> string -> stmt list -> behavior
(** Build a leaf behavior. *)

val seq : string -> seq_arm list -> behavior
(** Build a sequential composition. *)

val par : ?vars:var_decl list -> string -> behavior list -> behavior
(** Build a parallel composition. *)

val arm : ?transitions:transition list -> behavior -> seq_arm
(** Build a sequential arm; an empty transition list falls through to the
    next arm. *)

val is_leaf : behavior -> bool

val names : behavior -> string list
(** All behavior names in the tree, preorder. *)

val fold : ('a -> behavior -> 'a) -> 'a -> behavior -> 'a
(** Preorder fold over every behavior in the tree (including the root). *)

val find : string -> behavior -> behavior option
(** Find the behavior with the given name in the tree. *)

val parent_of : string -> behavior -> behavior option
(** The behavior whose body directly contains the named child. *)

val children : behavior -> behavior list
(** Direct sub-behaviors, in order. *)

val map : (behavior -> behavior) -> behavior -> behavior
(** Bottom-up rewriting of every behavior in the tree. *)

val map_leaf_stmts : (stmt list -> stmt list) -> behavior -> behavior
(** Rewrite the statement list of every leaf. *)

val replace : string -> behavior -> behavior -> behavior
(** [replace name b' tree] substitutes the behavior named [name] with [b'],
    preserving the transitions of the arm it occupies.
    @raise Not_found if no behavior has that name. *)

val transition_conds : behavior -> (string * expr) list
(** All TOC conditions in the tree, paired with the name of the sequential
    behavior owning the arc. *)

val all_var_decls : behavior -> (string * var_decl) list
(** Every local variable declaration in the tree, paired with the name of
    the declaring behavior. *)

val behavior_count : behavior -> int
(** Number of behaviors in the tree. *)

val stmt_count : behavior -> int
(** Total number of statements across all leaves. *)

val depth : behavior -> int
(** Height of the tree (a lone leaf has depth 1). *)
