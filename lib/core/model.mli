(** The four implementation models of the paper (Section 3).  They differ
    in three parameters: the number of memory ports, the mapping of
    variables to memories, and the communication scheme. *)

type t =
  | Model1  (** single-port global memory only; one shared bus *)
  | Model2  (** local memories + single-port global memory *)
  | Model3  (** local memories + multi-port global memories *)
  | Model4  (** local memories only + bus interfaces (message passing) *)

val all : t list
(** In paper order. *)

val name : t -> string
val description : t -> string

val of_string : string -> t option
(** Accepts ["model1"].."4"] and ["1"].."4"], case-insensitive. *)

val max_buses : t -> p:int -> int
(** Maximum number of buses after refinement for [p] partitions (paper,
    Section 3): 1, p+1, p+p², 2p+1. *)

val global_memory_ports : t -> p:int -> int
(** Maximum ports of a global memory (0 when the model has none). *)
