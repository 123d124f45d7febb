(** Constraint-aware partitioning (paper, Section 1: partitioning must
    divide the specification "such that the imposed design constraints are
    met and the overall design cost is minimized").  Each partition has a
    capacity limit and every object a per-partition cost; communication is
    minimized subject to a steep penalty on capacity overruns. *)

type problem = {
  pr_limits : int array;  (** capacity limit of each partition *)
  pr_object_cost : int -> Partition.obj -> int;
      (** cost of placing an object on a partition *)
}

val loads : problem -> Partition.t -> int array
(** Capacity demand per partition under the problem's cost model. *)

val overrun : problem -> Partition.t -> int
(** Total capacity overrun; 0 means feasible. *)

val is_feasible : problem -> Partition.t -> bool

val objective : problem -> Partition.t -> float
(** The annealing objective: {!Cost.comm_bits} plus 10{^6} per unit of
    overrun. *)

val run :
  ?seed:int ->
  ?steps:int ->
  Agraph.Access_graph.t ->
  problem:problem ->
  n_parts:int ->
  Partition.t
(** @raise Invalid_argument unless there is exactly one limit per
    partition. *)
