(** Reconstruction of the paper's experimental workload: the real-time
    embedded bladder-volume measurement system of Section 5, profiled as
    16 behaviors, 14 variables and 52 data-access channels.  The original
    SpecCharts source is not public, so this is a synthetic system with
    exactly that access-graph profile; Figures 9 and 10 depend only on
    those statistics.  The source is [examples/specs/medical.sc], parsed
    through {!Builtin} when this module is initialized. *)

val spec : Spec.Ast.program
(** Validated; 16 leaf behaviors in a four-level hierarchy, 14 program
    variables. *)

val graph : Agraph.Access_graph.t
(** Derived with default profiling; exactly 52 data channels. *)

val objects : string list
(** The 16 partitionable leaf behaviors, preorder. *)

val leaf_names : string list
val variable_names : string list
