(** Running one shape under one (ordering, seed, faults) point on a
    chosen kernel. *)

type kernel = [ `Engine | `Reference ]

type outcome = {
  o_shape : string;
  o_ordering : Sim.Memord.policy;
  o_seed : int;
  o_result : Sim.Engine.result;
  o_observed : (string * Spec.Ast.value option) list;
  o_verdict : Classify.verdict;
  o_diverted : int;  (** updates diverted into port FIFOs *)
  o_reordered : int;  (** relaxed releases that overtook an older entry *)
}

val run :
  ?kernel:kernel ->
  ?faults:Faults.Fault.spec list ->
  ordering:Sim.Memord.policy ->
  seed:int ->
  Shape.t ->
  outcome
(** Deterministic: the same (kernel, faults, ordering, seed, shape)
    point always yields the same outcome, and the two kernels classify
    identically (the litmus determinism tests enforce this).  [seed] is
    ignored under {!Sim.Memord.Sc}, where no ordering layer is installed
    at all. *)
