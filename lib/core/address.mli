(** Memory address assignment (paper, Section 4.2: "each variable will be
    assigned a different address in the address space").  One program-wide
    address space keeps addressing unambiguous across every bus and
    memory; scalars take one slot, arrays a slot per element, in
    declaration order. *)

type t = {
  addr_of : (string * int) list;
  addr_width : int;  (** width of every address bus (>= 1) *)
  data_width : int;  (** width of every data bus: the widest variable *)
}

val build : Spec.Ast.program -> t

val address : t -> string -> int
(** Base address of the variable (arrays: address of element 0).
    @raise Invalid_argument for a name that is not a program variable. *)
