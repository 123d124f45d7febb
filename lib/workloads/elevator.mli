(** A second embedded case study: an elevator controller in the style of
    the running example of the authors' book (the paper's reference [5]).
    Control-dominated, with a service loop driven by a TOC arc on a
    composite arm — used to check that the experimental conclusions are
    not specific to the medical workload.  The source is
    [examples/specs/elevator.sc], loaded through {!Builtin}. *)

val spec : Spec.Ast.program
val graph : Agraph.Access_graph.t

val partition : Partitioning.Partition.t
(** Mechanical sequencing (motor, travel, doors) on the ASIC; planning and
    logging on the processor. *)
