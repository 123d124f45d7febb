(** The communication plan implied by an implementation model: which
    memory every variable maps to, which buses exist, and which data
    channels each bus carries.  This is the accounting behind the paper's
    Figure 9 (bus transfer rates) and the skeleton the structural refiner
    builds from. *)

open Agraph

type memory_id =
  | Gmem  (** the single global memory of Model1/Model2 *)
  | Gmem_part of int
      (** Model3: the multi-port global memory holding globals homed in
          the given partition *)
  | Lmem of int  (** local memory of a partition *)

type bus_role =
  | Shared_global
      (** Model1's only bus / Model2's global bus; masters from every
          partition *)
  | Local of int  (** local bus of one partition *)
  | Dedicated of { master : int; mem : int }
      (** Model3: the bus from partition [master] to the global memory
          homed at [mem] *)
  | Chain_request of int
      (** Model4: the request bus between partition [i] and its bus
          interface *)
  | Chain_inter  (** Model4: the bus connecting the bus interfaces *)

type bus = {
  bus_role : bus_role;
  bus_edges : Access_graph.data_edge list;
      (** channels mapped to this bus; in Model4 a cross-partition channel
          appears on every segment of the interface chain it traverses *)
}

type t = {
  bp_model : Model.t;
  bp_parts : int;
  bp_buses : bus list;
  bp_memory_of : (string * memory_id) list;
      (** memory assignment of every program variable *)
  bp_memory_index : memory_id Spec.Names.Map.t;
      (** [bp_memory_of] as a table, for {!memory_of} *)
}

val build :
  ?extra_readers:(string * int) list ->
  Model.t ->
  Access_graph.t ->
  Partitioning.Partition.t ->
  t
(** Derive the plan.  [extra_readers] lists additional (variable,
    partition) readers the refined structure introduces (TOC conditions
    re-evaluated by their composite's home partition); a variable read
    from outside its home partition is forced into a globally reachable
    memory.  Variables are classified over the graph the partition was
    built on.
    @raise Invalid_argument if the partition does not cover the graph (one
    built over another graph, say). *)

val memory_of : t -> string -> memory_id
(** @raise Not_found for a name that is not a program variable. *)

val vars_of_memory : t -> memory_id -> string list

val memories : t -> memory_id list
(** All instantiated memories (with at least one variable), deterministic
    order. *)

val bus_of_access : t -> master:int -> variable:string -> bus_role
(** The bus a behavior in partition [master] uses to reach [variable] —
    for Model4 cross-partition accesses this is the request bus
    [Chain_request master]. *)

val role_label : bus_role -> string

val equal_role : bus_role -> bus_role -> bool
