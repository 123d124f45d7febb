(** Behavior lifetime estimation: how long a behavior executes on the
    component its partition maps to.  Channel transfer rates divide bits
    by this lifetime (paper, Section 5 / its reference [13]). *)

val behavior_seconds : Spec.Ast.program -> Arch.Component.t -> string -> float
(** Lifetime in seconds of the named behavior on the given component,
    floored at one clock cycle.
    @raise Invalid_argument on an unknown behavior or a clockless
    component. *)

val partitioned_behavior_seconds :
  Spec.Ast.program ->
  Arch.Allocation.t ->
  Partitioning.Partition.t ->
  string ->
  float
(** Lifetime of a partitioned behavior on the component its partition maps
    to. *)
