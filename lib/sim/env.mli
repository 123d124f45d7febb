(** Variable environments: a chain of frames, one per behavior instance or
    procedure activation.  Variables are mutable cells; [out] procedure
    parameters alias the caller's cell. *)

open Spec

type frame = {
  f_vars : (string, Ast.value ref) Hashtbl.t;
  f_arrays : (string, Ast.value array) Hashtbl.t;
  f_parent : frame option;
  f_behavior : string;  (** name of the owning behavior / procedure *)
  f_memo_cell : (string, Ast.value ref option) Hashtbl.t;
      (** memoized parent-chain resolutions; maintained by {!find_cell},
          invalidated by {!bind} *)
  f_memo_arr : (string, Ast.value array option) Hashtbl.t;
}

val make : ?parent:frame -> owner:string -> Ast.var_decl list -> frame
(** Fresh frame with one cell per declaration, initialized to the declared
    value or the type default. *)

val bind : frame -> string -> Ast.value ref -> unit
(** Bind a name to an existing cell (aliasing, used for [out] params). *)

val find_cell : frame -> string -> Ast.value ref option
(** Innermost cell for the name, walking the parent chain. *)

val find_array : frame -> string -> Ast.value array option
(** Innermost array binding for the name, walking the parent chain. *)

val lookup : frame -> string -> Ast.value option

val reinitialize : frame -> Ast.var_decl list -> unit
(** Re-run the initializers of the given declarations in this frame. *)
