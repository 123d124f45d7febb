(** Static analysis of specifications: which behaviors access which
    program-level variables, with static execution-count estimates.  This
    is the information the access graph (paper, Figure 1a) is derived
    from. *)

open Ast

type access_kind = Read | Write

type access = {
  ac_var : string;  (** a program-level variable *)
  ac_kind : access_kind;
  ac_count : int;  (** static execution-count estimate of the access site *)
}

val behavior_accesses :
  ?while_iterations:int -> program -> (string * access list) list
(** For every behavior in the tree (preorder), its aggregated accesses to
    program-level variables.  [while_iterations] (default 8) is the static
    trip-count estimate for [while] loops and non-constant [for] bounds;
    constant [for] bounds contribute their exact trip count.  Reads in TOC
    conditions are attributed to the arm's child behavior, mirroring where
    the refinement inserts the protocol call (Figure 6). *)

val accesses_of : program -> string -> access list
(** Accesses of one named behavior. *)

val var_users : program -> (string * string list) list
(** For every program variable, the behaviors accessing it. *)
