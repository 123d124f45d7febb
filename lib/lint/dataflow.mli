(** Generic worklist fixpoint solving over {!Cfg} graphs.

    The solver is parameterized over a {!DOMAIN}: an abstract lattice
    with a direction, join/widen, a per-node transfer function and a
    per-edge filter ([edge] returning [None] marks the edge infeasible,
    which is how constant propagation prunes branches).  Widening kicks
    in after a node's joined state has changed {!widen_after} times, so
    loop-heavy specs terminate even on lattices with infinite ascending
    chains (intervals).

    Two concrete lattices live here too: {!Interval} (value ranges with
    environment maps, expression evaluation and branch assumption) and
    {!Names} (plain string sets, the carrier of backward liveness). *)

open Spec
open Ast

module type DOMAIN = sig
  type t

  val direction : [ `Forward | `Backward ]

  val bottom : t
  (** Unreachable / no information yet. *)

  val is_bottom : t -> bool

  val boundary : t
  (** State at the graph boundary: entry for forward analyses, exit for
      backward ones.  Must not be [bottom]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen old contrib] — must guarantee finite ascending chains. *)

  val transfer : Cfg.node -> t -> t
  (** Effect of executing the node.  Never applied to [bottom]. *)

  val edge : Cfg.node -> Cfg.edge -> t -> t option
  (** Filter the state crossing the given out-edge of [node]; [None]
      marks the edge infeasible.  For backward analyses the state is the
      successor's in-state flowing back. *)
end

val widen_after : int
(** Number of state changes at a node before [join] becomes [widen]. *)

module Solve (D : DOMAIN) : sig
  type result = {
    r_in : D.t array;  (** per node, state on entry (execution order) *)
    r_out : D.t array;  (** per node, state on exit (execution order) *)
    r_iterations : int;  (** worklist pops until the fixpoint *)
  }

  val run : Cfg.t -> result
end

(** Integer intervals with infinities, environment maps binding names to
    intervals (absent = top), expression evaluation and conditional
    assumption — the carrier of the constant/interval pass. *)
module Interval : sig
  type itv = { lo : int; hi : int }
  (** [min_int]/[max_int] bounds are the infinities; arithmetic
      saturates far below them and never wraps. *)

  val top : itv
  val const : int -> itv
  val of_value : value -> itv
  val widen_itv : itv -> itv -> itv

  val definitely_true : itv -> bool
  val definitely_false : itv -> bool

  val bits_needed : itv -> int option
  (** Bits required for every value in the range under the width pass's
      magnitude rule; [None] when unbounded. *)

  val itv_to_string : itv -> string

  type env
  (** Finite map from names to intervals; unbound = top. *)

  val env_empty : env
  val env_find : string -> env -> itv
  val env_set : string -> itv -> env -> env
  val env_join : env -> env -> env
  val env_widen : env -> env -> env
  val env_equal : env -> env -> bool

  val eval : env -> expr -> itv
  (** Abstract evaluation; array reads are top. *)

  val assume : env -> expr -> bool -> env option
  (** [assume env c outcome] refines [env] under "[c] evaluated to
      [outcome]"; [None] when that is infeasible.  Sharpens variables
      compared against constants; anything else is left unchanged. *)
end

(** String sets — the liveness lattice. *)
module Names : sig
  type t

  val empty : t
  val of_list : string list -> t
  val add : string -> t -> t
  val union : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val mem : string -> t -> bool
end
