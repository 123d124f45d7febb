(** An allocation: the ordered list of system components that the
    partitions of a design map onto — partition [i] executes on component
    [i].  Buses and memories are not allocated here; model refinement
    introduces them according to the chosen implementation model. *)

type t

val make : Component.t list -> t
(** @raise Invalid_argument on an empty allocation. *)

val component : t -> int -> Component.t
(** @raise Invalid_argument on an out-of-range index. *)

val proc_asic : unit -> t
(** The paper's running allocation: one Intel8086-class processor (index
    0) and one 10k-gate ASIC (index 1). *)
