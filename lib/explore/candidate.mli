(** A candidate point of the design space: which partition to search for
    (annealing seed and local/global bias, {!Partitioning.Design_search})
    and which of the paper's four implementation models to refine it to.
    The candidate space of a sweep is the cross product
    [seeds x biases x models]; enumeration order is fixed so every sweep
    — at any worker count — visits and reports candidates identically. *)

type t = {
  c_seed : int;  (** seed of the partition annealing run *)
  c_bias : Partitioning.Design_search.bias;
      (** target local/global variable balance *)
  c_model : Core.Model.t;  (** implementation model to refine to *)
  c_n_parts : int;  (** number of system components *)
  c_steps : int;  (** annealing steps of the partition search *)
}

val enumerate :
  ?n_parts:int ->
  ?steps:int ->
  ?biases:Partitioning.Design_search.bias list ->
  seeds:int list ->
  models:Core.Model.t list ->
  unit ->
  t list
(** The cross product in a fixed, deterministic order: seeds outermost,
    then biases (paper order: balanced, local, global), then models
    (paper order).  Duplicates in the inputs are preserved.  [n_parts]
    defaults to 2 (the paper's processor + ASIC), [steps] to 4000. *)

val bias_name : Partitioning.Design_search.bias -> string
(** ["balanced"], ["local"] or ["global"]. *)

val bias_of_string : string -> Partitioning.Design_search.bias option
(** Inverse of {!bias_name}, case-insensitive. *)

val all_biases : Partitioning.Design_search.bias list
(** The three biases in enumeration order. *)

val label : t -> string
(** Short stable identifier, e.g. ["seed5/local/model2"]. *)

val compare : t -> t -> int
(** Total order consistent with {!enumerate}'s output order for a given
    candidate space. *)

val equal : t -> t -> bool
