(** Per-statement execution-cost model.

    Software estimation on processors follows the component's per-statement
    cycle attributes (in the spirit of the paper's reference [8], "Software
    estimation from executable specifications"); hardware estimation on
    ASICs charges the datapath operation count of each expression.
    Branches cost their worst alternative; loops multiply by their constant
    trip count or by the configured [while_iterations] estimate. *)

type config = { while_iterations : int }

val stmt_cycles :
  ?config:config -> Arch.Component.t -> Spec.Ast.stmt list -> float
(** Estimated execution cycles of a statement list on the component.
    @raise Invalid_argument for memory components, which execute no code. *)
