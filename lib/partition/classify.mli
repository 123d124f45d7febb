(** Local/global variable classification (paper, Section 3): a variable is
    {e local} when every behavior accessing it resides in the same
    partition as the variable itself; otherwise it is {e global}. *)

type klass = Local | Global

type report = {
  locals : string list;
  globals : string list;
  unaccessed : string list;
      (** declared variables no behavior accesses; they stay local *)
}

val classify :
  Agraph.Access_graph.t -> Partition.t -> string -> klass
(** Classification of one variable; one the graph does not declare is
    local.
    @raise Invalid_argument if the variable or one of its accessors is not
    assigned by the partition. *)

val report : Agraph.Access_graph.t -> Partition.t -> report
(** Classify every variable of the graph; each list is in graph order. *)

val ratio : report -> float
(** [|locals| / max 1 |globals|] — the design-characterization knob of the
    paper's three experimental designs. *)

(** {2 Over an index and an assignment} *)

val counts_at : Index.t -> int array -> int * int
(** The numbers of local and global variables. *)
