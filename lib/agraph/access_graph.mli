(** The access graph of a specification (paper, Figure 1a): nodes are
    behaviors and variables, edges are channels — control channels derived
    from the execution sequence (TOC arcs) and data channels derived from
    variable accesses. *)

open Spec

type data_dir = Dread | Dwrite

type control_edge = {
  ce_src : string;  (** source behavior *)
  ce_dst : string;  (** destination behavior *)
  ce_cond : Ast.expr option;  (** the TOC condition, if any *)
}

type data_edge = {
  de_behavior : string;  (** the accessing partition object *)
  de_variable : string;
  de_dir : data_dir;
  de_count : int;  (** static execution-count estimate of the accesses *)
  de_bits : int;  (** bit width of one transfer *)
}

type t = {
  g_objects : string list;
      (** partitionable behavior objects, in tree preorder *)
  g_variables : string list;  (** program-level variables *)
  g_control : control_edge list;
  g_data : data_edge list;
}

val of_program :
  ?while_iterations:int -> ?objects:string list -> Ast.program -> t
(** Derive the access graph.  [objects] selects the behaviors treated as
    partitionable units (default: the leaf behaviors of the program); the
    accesses of a non-leaf object are the aggregated accesses of its
    subtree.  Control edges connect sibling arms of every sequential
    composition.
    @raise Invalid_argument if an object name does not exist or objects
    are nested within each other. *)

val default_objects : Ast.program -> string list
(** The leaf behaviors of the program, in preorder. *)

val behaviors_accessing : t -> string -> string list
(** Deduplicated object behaviors with an edge to the given variable. *)

val channel_count : t -> int
(** Number of data-access channels (the paper reports 52 for the medical
    system). *)

val edge_bits : data_edge -> int
(** Total bits transferred over the channel: [count * bits]. *)

val to_dot : t -> string
(** Graphviz rendering, for inspection and the examples. *)
