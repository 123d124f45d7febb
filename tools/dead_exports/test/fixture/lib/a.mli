(** Each value below is live through one way of naming it, except the
    two planted findings: [dead] and [opt_never]'s [?flag]. *)

val dead : int -> int
(** Planted: no unit references it. *)

val opt_never : ?flag:bool -> int -> int
(** Planted: every call leaves [?flag] out. *)

val opt_passed : ?n:int -> int -> int
val via_include : int -> int
val via_include_inside : int -> int
val via_alias : int -> int
val via_let_module : int -> int

module Key : sig
  type t = int

  val compare : t -> t -> int
  (** Live only as {!Set.Make}'s argument. *)

  val show : t -> string
  (** Live only through an alias of this submodule. *)
end
