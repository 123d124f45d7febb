(** Small pedagogical specifications: the running examples of the paper's
    Figures 1 and 2, used by the quickstart example and many tests.  The
    sources are [examples/specs/fig1.sc], [fig2.sc] and [pingpong.sc],
    loaded through {!Builtin}. *)

val fig1 : Spec.Ast.program
(** Figure 1a: behaviors A, B, C and variable x; after A, control branches
    on x to B or C. *)

val fig1_partition : Partitioning.Partition.t
(** Figure 1c: A and C on the processor, B and x on the ASIC. *)

val fig2 : Spec.Ast.program
(** Figure 2: behaviors B1-B4 and variables v1-v7. *)

val fig2_partition : Partitioning.Partition.t
(** Figure 2's split: v1-v3 local to the processor, v6 local to the ASIC,
    v4, v5, v7 global. *)

val ping_pong : Spec.Ast.program
(** A two-behavior TOC loop used by unit tests. *)

val ping_pong_partition : Partitioning.Partition.t
