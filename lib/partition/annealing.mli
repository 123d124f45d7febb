(** Simulated-annealing partitioner with a caller-supplied objective;
    fully deterministic given the seed.  {!Design_search} reuses the
    engine with its own objective. *)

type config = {
  seed : int;
  initial_temp : float;
  cooling : float;  (** multiplicative factor per step *)
  steps : int;
}

val default_config : config

val run_objective :
  ?config:config ->
  objective:(Partition.t -> float) ->
  Agraph.Access_graph.t ->
  n_parts:int ->
  Partition.t
(** Minimize an arbitrary objective over complete partitions; returns the
    best state visited.  [objective] scores the search's working
    partition, which it must not keep or modify. *)

val run : ?config:config -> Agraph.Access_graph.t -> n_parts:int -> Partition.t
(** Anneal under the default {!Cost.total} objective. *)
