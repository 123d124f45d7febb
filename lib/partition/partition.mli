(** Partitions: the assignment of the specification's objects — behaviors
    and variables — to the allocated system components.  Partition indexes
    correspond to components of an {!Arch.Allocation.t}.

    A partition is built over one access graph and assigns exactly that
    graph's objects.  It carries the graph's numbering: the objects are
    numbered in {!objects} order, data edges and variable users refer to
    objects by number, and [parts] gives the partition of each number.
    The numbering is built once per graph; the searches move objects in a
    working array over it and return a partition that is never changed
    afterwards. *)

type obj =
  | Obj_behavior of string
  | Obj_variable of string

val obj_name : obj -> string
val compare_obj : obj -> obj -> int

type t = private {
  n_parts : int;
  objs : obj array;  (** in {!compare_obj} order *)
  numbers : (obj, int) Hashtbl.t;  (** each object's number; read-only *)
  n_behaviors : int;  (** behaviors sort first: numbers [0, n_behaviors) *)
  e_behavior : int array;
      (** per data edge, in graph order, its behavior's number *)
  e_variable : int array;  (** per data edge, its variable's number *)
  e_bits : int array;  (** per data edge, {!Agraph.Access_graph.edge_bits} *)
  vars : string array;  (** the graph's variables, in graph order *)
  var_obj : int array;  (** per variable, its number *)
  user_objs : int array array;
      (** per variable, the numbers of its distinct accessing behaviors *)
  parts : int array;  (** per object number, its partition *)
}

val of_graph :
  Agraph.Access_graph.t -> n_parts:int -> (obj -> int) -> t
(** Apply a placement function to every object of the access graph, in
    graph order: behaviors, then variables.
    @raise Invalid_argument on [n_parts < 1], an out-of-range partition
    index or a graph that names an object twice. *)

val make :
  Agraph.Access_graph.t -> n_parts:int -> (obj * int) list -> (t, string) result
(** A partition of the graph from explicit assignments.  The error names
    an object the graph lacks, an out-of-range index or a duplicate, else
    every object left unassigned, in graph order.
    @raise Invalid_argument on [n_parts < 1] or a graph that names an
    object twice. *)

val with_parts : t -> int array -> t
(** The same graph's partition with the given assignment, which it takes
    over without copying. *)

val n_parts : t -> int

val part_of_behavior : t -> string -> int option

val part_of_variable : t -> string -> int option

val objects : t -> (obj * int) list
(** All assignments, sorted by object. *)

val behaviors_in : t -> int -> string list

val variables_in : t -> int -> string list

val complete_for : Agraph.Access_graph.t -> t -> (unit, string list) result
(** Check that every object of the graph is one of the partition's. *)

val pp : Format.formatter -> t -> unit
