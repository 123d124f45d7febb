(** A third case study exercising arrays: a 4-tap FIR filter, the
    canonical datapath-dominated codesign workload.  Arrays map to memory
    address ranges during refinement, so this workload drives the indexed
    bus-protocol path (address = base + index) through every
    implementation model.  The source is [examples/specs/fir.sc], loaded
    through {!Builtin}. *)

val spec : Spec.Ast.program
val graph : Agraph.Access_graph.t

val partition : Partitioning.Partition.t
(** Datapath (filter and its arrays) on the ASIC; stream production and
    collection on the processor. *)
