(** Control-related refinement (paper, Section 4.1, Figure 4): when a
    behavior [B] is partitioned away from the composite that sequences it,
    it is replaced in place by a [B_CTRL] leaf and re-created on its home
    partition as a perpetual [B_NEW] wrapper; the pair synchronizes over
    fresh [B_start] / [B_done] signals so the original execution order is
    preserved. *)

open Spec

type moved = {
  mv_partition : int;  (** home partition of the moved behavior *)
  mv_behavior : Ast.behavior;  (** the generated [B_NEW] process *)
  mv_original_name : string;
  mv_start : string;
  mv_done : string;
}

type result = {
  cr_top_home : int;  (** partition hosting the refined main control tree *)
  cr_main : Ast.behavior;  (** the refined original tree, with [B_CTRL]s *)
  cr_moved : moved list;  (** in generation order *)
  cr_signals : Ast.sig_decl list;  (** the [B_start] / [B_done] signals *)
}

val home :
  is_object:(string -> bool) ->
  home_of:(string -> int) ->
  Ast.behavior ->
  int option
(** The partition a behavior executes on: its own partition when it is an
    object, otherwise the home of its first object-bearing descendant;
    [None] for subtrees containing no object. *)

val run :
  naming:Naming.t ->
  ?force_nonleaf:bool ->
  ?harden:Protocol.harden_cfg ->
  is_object:(string -> bool) ->
  home_of_object:(string -> int) ->
  Ast.behavior ->
  result
(** Distribute the behavior tree.  [is_object] marks the partitionable
    behaviors, [home_of_object] gives their partitions.  The home of a
    composite is the home of its first object descendant.  With
    [force_nonleaf] the non-leaf wrapper scheme (Figure 4c) is used even
    for leaves (the paper notes both are legal for leaves; the leaf scheme
    of Figure 4b is the default because it is simpler).  With [harden]
    every [B_start] / [B_done] handshake phase becomes a bounded watchdog
    loop with idempotent level re-driving (see {!Protocol.await}). *)
