(** Local/global variable classification (paper, Section 3): a variable is
    {e local} when every behavior accessing it resides in the same
    partition as the variable itself; otherwise it is {e global}. *)

type report = {
  locals : string list;
  globals : string list;
  unaccessed : string list;
      (** declared variables no behavior accesses; they stay local *)
}

val report : Partition.t -> report
(** Classify every variable of the partition's graph; each list is in
    graph order. *)

val counts : Partition.t -> int * int
(** The numbers of local and global variables. *)

val ratio : report -> float
(** [|locals| / max 1 |globals|] — the design-characterization knob of the
    paper's three experimental designs. *)
