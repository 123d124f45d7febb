(** Channel transfer rates (paper, Section 5; definition from its
    reference [13]): the rate at which data is sent over a channel during
    the lifetime of the behaviors communicating over it,

    {[ rate(ch) = bits(ch) * accesses(ch) / lifetime(behavior(ch)) ]}

    reported in Mbit/s. *)

open Agraph

type env = {
  program : Spec.Ast.program;
  alloc : Arch.Allocation.t;
  part : Partitioning.Partition.t;
}

let make_env program alloc part = { program; alloc; part }

(** Transfer rate of one data channel in Mbit/s. *)
let channel_rate_mbps env (e : Access_graph.data_edge) =
  let lifetime =
    Lifetime.partitioned_behavior_seconds env.program env.alloc env.part
      e.Access_graph.de_behavior
  in
  let bits = float_of_int (Access_graph.edge_bits e) in
  bits /. lifetime /. 1e6

(** Sum of channel rates for a set of channels — the required transfer
    rate of a bus carrying them (paper: "the bus transfer rate is
    calculated as the sum of the channel transfer rate of all channels
    mapped to the bus"). *)
let bus_rate_mbps env edges =
  List.fold_left (fun acc e -> acc +. channel_rate_mbps env e) 0.0 edges

(** Rates of every channel in the graph, keyed by (behavior, variable,
    direction) for reporting. *)
let all_channel_rates env (g : Access_graph.t) =
  List.map (fun e -> (e, channel_rate_mbps env e)) g.Access_graph.g_data
