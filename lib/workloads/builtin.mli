(** The built-in workloads, loaded on demand.  Each one is a shipped
    example specification ([examples/specs/NAME.sc]) whose text is
    embedded at build time, so the files are the only definition and a
    program that links this module does no work until it asks for a
    workload.  This module also holds the fixed partitions of the paper's
    experiments.  It references none of the value modules ({!Medical},
    {!Designs}, ...), which are thin wrappers over it. *)

val names : string list
(** [fig1], [fig2], [pingpong], [medical], [elevator], [fir]. *)

val program : string -> Spec.Ast.program
(** Parse and validate the named workload.
    @raise Invalid_argument on a name not in {!names}. *)

val partition : string -> Agraph.Access_graph.t -> Partitioning.Partition.t
(** The two-component split of the named workload over its access graph:
    Figure 1(c) for [fig1], Figure 2's split for [fig2], PONG on the ASIC
    (component 1) for [pingpong], the mechanical sequencing on the ASIC
    for [elevator] and the datapath on the ASIC for [fir].
    @raise Invalid_argument on [medical] (see {!designs}) or an unknown
    name. *)

type design = {
  d_name : string;
  d_description : string;
  d_partition : Partitioning.Partition.t;
}

val designs : Agraph.Access_graph.t -> design list
(** The paper's Design1-3 (Section 5) over the medical system's graph. *)
