(** Channel transfer rates (paper, Section 5; definition from its
    reference [13]): the rate at which data is sent over a channel during
    the lifetime of the behaviors communicating over it,

    {[ rate(ch) = bits(ch) * accesses(ch) / lifetime(behavior(ch)) ]}

    reported in Mbit/s.  A bus's required transfer rate is the sum over
    the channels mapped to it. *)

type env = {
  program : Spec.Ast.program;
  alloc : Arch.Allocation.t;
  part : Partitioning.Partition.t;
}

val make_env :
  Spec.Ast.program -> Arch.Allocation.t -> Partitioning.Partition.t -> env

val channel_rate_mbps : env -> Agraph.Access_graph.data_edge -> float
(** Transfer rate of one data channel in Mbit/s. *)

val bus_rate_mbps : env -> Agraph.Access_graph.data_edge list -> float
(** Required rate of a bus carrying the given channels: the sum of their
    rates. *)

val all_channel_rates :
  env ->
  Agraph.Access_graph.t ->
  (Agraph.Access_graph.data_edge * float) list
(** Every channel of the graph with its rate, for reporting. *)
