(** Constructive greedy partitioner: objects are placed one at a time, in
    decreasing order of connectivity, each on the partition that minimizes
    the traffic to already-placed neighbours while keeping loads even. *)

val run : Agraph.Access_graph.t -> n_parts:int -> Partition.t
(** Always yields a complete partition of the graph's objects. *)
