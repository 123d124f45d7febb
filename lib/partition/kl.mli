(** Kernighan–Lin / Fiduccia–Mattheyses style improvement: repeated passes
    of single-object moves with per-pass locking; each pass keeps its best
    prefix of moves, and passes repeat until no improvement. *)

val run : Partition.t -> Partition.t
(** Improve an existing partition; the result never costs more than the
    input under {!Cost.total}. *)

val run_from_scratch : Agraph.Access_graph.t -> n_parts:int -> Partition.t
(** Greedy construction followed by KL refinement. *)
