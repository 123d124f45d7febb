(** Search for partitions with a prescribed local/global variable balance —
    how the paper's three experimental designs are characterized (Design1:
    local = global, Design2: local > global, Design3: local < global). *)

type bias = Balanced | Mostly_local | Mostly_global

val run :
  ?seed:int ->
  ?steps:int ->
  Agraph.Access_graph.t ->
  n_parts:int ->
  bias:bias ->
  Partition.t
(** Anneal toward the requested global-variable count, with a small
    communication term and a penalty on empty partitions. *)

val objective : bias:bias -> Partition.t -> float
(** The annealing objective: 1000 per global variable off the bias's
    target count, 10000 per partition without a behavior, and 0.001 per
    bit of {!Cost.comm_bits}. *)
