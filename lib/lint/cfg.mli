(** Statement-level control-flow graphs over {!Spec.Ast.stmt} lists —
    the substrate of the dataflow passes.

    One graph covers one straight statement list: a leaf behavior's body
    or a procedure body (composition edges between behaviors — seq arms,
    TOC arcs, par forks — are handled one level up, in {!Flow}, which
    analyzes each leaf separately and reasons about TOC conditions with
    the program-wide constant environment).

    Compound statements are lowered to primitive nodes: every [If] /
    [While] condition becomes an {!Nbranch} node with [Etrue] / [Efalse]
    out-edges, a [While] body gets a back edge to its test, and a [For]
    desugars into synthesized init / test / increment nodes (flagged
    {!node.n_synth}; they carry no source position of their own). *)

open Spec
open Ast

type edge = Eseq | Etrue | Efalse

type kind =
  | Nentry
  | Nexit
  | Nstmt of stmt  (** primitive statement — never [If]/[While]/[For] *)
  | Nbranch of expr  (** decision point: an [If]/[While]/[For] test *)

type node = {
  n_id : int;
  n_kind : kind;
  n_synth : bool;  (** lowered from a [For]; anchors no diagnostics *)
  mutable n_succ : (edge * int) list;
  mutable n_pred : int list;
}

type t = { c_nodes : node array; c_entry : int; c_exit : int }

val build : stmt list -> t
(** Build the graph of one statement list.  Every node is reachable from
    [c_entry] by construction; [c_exit] collects all fall-off ends. *)

val size : t -> int
val node : t -> int -> node
val succs : t -> int -> (edge * int) list
val preds : t -> int -> int list

val uses : node -> string list
(** Names the node reads (its expressions' references, sorted, deduped).
    An indexed store reads its own array; a branch reads its test. *)

val defs : node -> string list
(** Variables the node fully overwrites: plain assignments and [out]
    call arguments.  Indexed stores are partial updates and signal
    assignment leaves the pre-delta value readable, so neither kills. *)

val sig_defs : node -> string list
(** Signals the node drives. *)

val to_string : t -> string
(** One line per node: [id[*] kind -> succ,succ…], with [*] marking
    synthesized nodes and [t:]/[f:] labeling branch edges — the golden
    test format. *)
