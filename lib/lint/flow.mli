(** Program-level flow summary: the bridge between the generic
    {!Dataflow} machinery and the lint passes.

    For every leaf behavior the summary holds a {!Cfg}, the interval
    fixpoint (forward, havocking shared state at blocking nodes since
    concurrent siblings interleave only there, and assuming wait
    conditions on resume), interval-based reachability, a liveness
    fixpoint gated by interval edge feasibility, the dead stores, and
    the access sets restricted to reachable nodes.  Procedure bodies get
    the interval half (parameters unknown at entry).  Declarations never
    written anywhere in the program are constants and seed every
    boundary environment with their initializer — this is what lets the
    passes prune branches and TOC arms by value range.

    Summaries are cached per program digest (domain-local, bounded), so
    passes, CLI and the fixer can each call {!of_program} freely. *)

open Spec
open Ast
module I = Dataflow.Interval
module N = Dataflow.Names

type binding =
  | Fvar of { key : string; ty : ty; init : value option }
      (** a variable; [key] is its declaration key ([owner.name] for
          locals), matching {!Pass.site} keys *)
  | Fsig of { ty : ty; init : value option }

type leaf_info = {
  li_behavior : string;
  li_path : string list;
  li_scope : (string * binding) list;  (** innermost binding first *)
  li_cfg : Cfg.t;
  li_reach : bool array;  (** per node: reachable under intervals *)
  li_env : I.env array;  (** per node: interval state on entry *)
  li_live_out : N.t array;  (** per node: names live after it *)
  li_iterations : int;  (** interval worklist pops until fixpoint *)
  li_dead_stores : (int * string) list;
      (** (node id, variable): reachable hand-written assignments
          overwritten before any read *)
  li_var_reads : (string * string) list;
      (** reachable (decl key, name) reads — the flow-sensitive
          replacement for {!Pass.site.st_var_reads} *)
  li_var_writes : (string * string) list;
  li_sig_reads : string list;
  li_sig_writes : string list;
}

type proc_info = {
  pi_name : string;
  pi_scope : (string * binding) list;
  pi_cfg : Cfg.t;
  pi_reach : bool array;
  pi_env : I.env array;
}

type summary = {
  fl_program : program;
  fl_leaves : (string * leaf_info) list;  (** keyed by behavior name *)
  fl_procs : (string * proc_info) list;
  fl_consts : (string * value) list;
      (** program-level declarations never written anywhere, with the
          value they hold forever *)
  fl_const_env : I.env;
  fl_for_counters : N.t;  (** decl keys used as [for] counters *)
}

val of_program : program -> summary
(** Compute (or fetch from the domain-local digest cache). *)

val leaf : summary -> string -> leaf_info option

val leaf_at : summary -> string list -> leaf_info option
(** Look a leaf up by its full behavior path (unambiguous even when
    behavior names repeat across the tree). *)

val cond_value : summary -> expr -> bool option
(** Truth value of a condition under the program-wide constants, when
    the interval analysis can decide it; [None] otherwise. *)

val is_for_counter : summary -> string -> bool
(** Whether the decl key is a [for] counter (written only by its loop —
    exempt from unread-write reporting). *)
