(** An access graph indexed for scoring many assignments of one set of
    objects.  The objects are numbered in {!Partition.objects} order; an
    {e assignment} is an [int array] giving the partition of each number,
    plus one last entry, always [-1], that stands for every name that is
    not among the objects: data edges and variable users refer to objects
    by number, and such a name reads as unassigned.

    The partitioners build one index per search and move objects in the
    array; the {!Partition.t} entry points of {!Cost} and {!Classify}
    build one per call, so every quantity has a single definition over
    the index. *)

type t = private {
  n_parts : int;
  objs : Partition.obj array;  (** in {!Partition.objects} order *)
  behaviors : int array;  (** the numbers of the behavior objects *)
  edges : Agraph.Access_graph.data_edge array;  (** in graph order *)
  e_behavior : int array;  (** per edge, its behavior's number *)
  e_variable : int array;  (** per edge, its variable's number *)
  e_bits : int array;  (** per edge, {!Agraph.Access_graph.edge_bits} *)
  vars : string array;  (** the graph's variables, in graph order *)
  var_obj : int array;  (** per variable, its number *)
  users : string array array;
      (** per variable, its distinct accessing behaviors by name *)
  user_objs : int array array;  (** the same behaviors, by number *)
}

val make : Agraph.Access_graph.t -> Partition.t -> t * int array
(** Index the graph over the partition's objects and parts; the array is
    the partition's assignment. *)

val to_partition : t -> int array -> Partition.t
