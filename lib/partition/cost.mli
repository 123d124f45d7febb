(** Partitioning cost: cross-partition communication plus load imbalance —
    the objective the automatic partitioners minimize.  Each quantity is
    defined once, over an {!Index}; the functions on a {!Partition.t}
    index it and compute the same. *)

type weights = {
  w_comm : float;  (** weight of cross-partition traffic (bits) *)
  w_balance : float;  (** weight of the load spread between partitions *)
}

val default_weights : weights

val comm_bits : Agraph.Access_graph.t -> Partition.t -> int
(** Total bits crossing partition boundaries: for every data edge whose
    behavior and variable live in different partitions, [count * bits].
    @raise Invalid_argument if the partition does not cover the graph. *)

val part_loads : Agraph.Access_graph.t -> Partition.t -> float array
(** Activity load of each partition: every data edge contributes its bits
    to the partition of its behavior. *)

val imbalance : Agraph.Access_graph.t -> Partition.t -> float
(** Spread between the most and least loaded partition. *)

val total : ?weights:weights -> Agraph.Access_graph.t -> Partition.t -> float

(** {2 Over an index and an assignment} *)

val comm_bits_at : Index.t -> int array -> int
val total_at : ?weights:weights -> Index.t -> int array -> float
