(** Partitioning cost: cross-partition communication plus load imbalance —
    the objective the automatic partitioners minimize.  Each quantity
    reads the partition's numbering of its graph. *)

type weights = {
  w_comm : float;  (** weight of cross-partition traffic (bits) *)
  w_balance : float;  (** weight of the load spread between partitions *)
}

val default_weights : weights

val comm_bits : Partition.t -> int
(** Total bits crossing partition boundaries: for every data edge whose
    behavior and variable live in different partitions, [count * bits]. *)

val part_loads : Partition.t -> float array
(** Activity load of each partition: every data edge contributes its bits
    to the partition of its behavior. *)

val imbalance : Partition.t -> float
(** Spread between the most and least loaded partition. *)

val total : ?weights:weights -> Partition.t -> float
