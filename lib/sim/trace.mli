(** Observable traces: the sequence of [emit] events a simulation
    produces, and the equivalences used to compare them. *)

open Spec

type event = {
  ev_tag : string;
  ev_value : Ast.value;
  ev_delta : int;  (** delta cycle at which the event fired *)
}

type t

val make : unit -> t

val clear : t -> unit
(** Drop all recorded events, reusing the buffer (session cache). *)

val record : t -> delta:int -> tag:string -> value:Ast.value -> unit

val events : t -> event list
(** In emission order. *)

type mark

val mark : t -> mark
(** The events recorded so far, in O(1) (engine checkpoints). *)

val rewind : t -> mark -> unit
(** Make the buffer hold exactly the events of the mark again. *)

val equivalent : event list -> event list -> bool
(** Equality up to timing: same tags and values in the same order. *)

val projections : event list -> (string * Ast.value list) list
(** Per-tag projection: the ordered value sequence of each tag, tags in
    order of first occurrence. *)

val projection_equivalent : event list -> event list -> bool
(** Same per-tag value sequences (cross-tag interleaving ignored) — the
    right equivalence for concurrent specifications. *)

val first_divergence : event list -> event list -> int option
(** Index of the first differing event, for diagnostics. *)
