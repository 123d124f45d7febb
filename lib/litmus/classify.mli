(** Classifying a simulation result against a shape's enumerated
    allowed-outcome sets. *)

open Spec

type verdict =
  | Sc_consistent  (** the delta-cycle sc baseline could produce it *)
  | Weak_allowed  (** only a weak port ordering can produce it *)
  | Forbidden  (** in-domain but in neither allowed set *)
  | Deadlock  (** the run did not complete (deadlock or budget) *)
  | Corruption  (** an observed value left the shape's domain *)

val to_string : verdict -> string
(** The stable report spelling: ["sc-consistent"], ["weak-allowed"],
    ["forbidden"], ["deadlock"], ["corruption"]. *)

val observed :
  Shape.t -> Sim.Engine.result -> (string * Ast.value option) list
(** The observed variables' final values, in [sh_observed] order;
    [None] when a variable is missing from the final values (classified
    as corruption). *)

val classify : Shape.t -> Sim.Engine.result -> verdict
