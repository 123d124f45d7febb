(** The three experimental designs of the paper (Section 5): fixed
    partitions of the medical system onto a processor and an ASIC with
    different local/global variable balances — Design1: 7/7, Design2:
    10/4, Design3: 4/10 (asserted by the test suite).  The partitions are
    {!Builtin.designs} over {!Medical.graph}. *)

type design = Builtin.design = {
  d_name : string;
  d_description : string;
  d_partition : Partitioning.Partition.t;
}

val design1 : design
(** local = global *)

val design2 : design
(** local > global *)

val design3 : design
(** local < global *)

val all : design list

val allocation : Arch.Allocation.t
(** The paper's allocation: one Intel8086-class processor, one 10k-gate
    ASIC. *)
