(** The signal store: current values plus the delta-delayed update queue
    (VHDL-style signal semantics).

    Signal names are interned to dense integer ids at construction; ids
    are assigned in sorted name order, so ascending-id iteration
    reproduces the name-sorted commit and snapshot orders.  Values are
    array-backed, and the scheduled queue is a worklist of written ids, so
    both the per-read cost and the per-commit cost are independent of the
    total signal count. *)

open Spec

type t

val make : Ast.sig_decl list -> t
(** Signals start at their declared initial value (or the type default). *)

val reset : t -> unit
(** Rewind to the construction state: declaration-time values, empty
    update queue, no intercept or notify hooks.  Observably a fresh
    {!make} of the same declarations. *)

type saved

val save : t -> saved
(** Copy the current values, between delta cycles: no update may be
    pending (engine checkpoints). *)

val restore : t -> saved -> unit
(** Put back the values of {!save} and drop any pending update, without
    firing the notify hook; the intercept and notify hooks stay as they
    are. *)

(** {1 Interned ids} *)

val n_signals : t -> int

val id_of : t -> string -> int option
(** The dense id of a signal name; ids are [0 .. n_signals - 1] in sorted
    name order, stable for the lifetime of the table. *)

val name_of : t -> int -> string

val read_id : t -> int -> Ast.value
(** Current value, by id — a single array read. *)

val schedule_id : t -> int -> Ast.value -> unit
(** Schedule a delta-delayed update, by id. *)

(** {1 Name-keyed interface} *)

val read : t -> string -> Ast.value option

val schedule : t -> string -> Ast.value -> bool
(** Schedule a delta-delayed update; false if the name is not a signal.
    The last schedule of a delta wins. *)

val pending : t -> bool

(** What an update intercept decides about one scheduled update (fault
    injection): let it through, lose it, or corrupt it in flight. *)
type action =
  | Pass
  | Drop
  | Rewrite of Ast.value

val set_intercept : t -> (string -> Ast.value -> action) option -> unit
(** Install (or clear) an update intercept.  During {!commit_changes} the
    intercept sees every scheduled update in sorted name order and may
    drop or rewrite it; normal operation has no intercept installed. *)

val set_notify : t -> (int -> unit) option -> unit
(** Install (or clear) the out-of-band change hook: {!poke} calls it with
    the signal's id whenever it changes a current value.  The event-driven
    scheduler uses this to wake waiters on poked signals; commits do not
    fire it (their changes are returned from {!commit_ids}). *)

val poke : t -> string -> Ast.value -> bool
(** Force a signal's current value immediately, bypassing the delta-cycle
    queue (fault injection: stuck lines, delayed re-delivery).  False if
    the name is not a signal. *)

val commit_ids : t -> int list
(** Apply all scheduled updates (in ascending id = sorted name order,
    each filtered through the intercept); returns the ids whose current
    value actually changed, ascending. *)

val commit_iter : t -> (int -> unit) -> unit
(** Apply all scheduled updates exactly as {!commit_ids}, calling the
    callback on each changed id (ascending) as it commits instead of
    materializing the list. *)

val commit_changes : t -> (string * Ast.value) list
(** Apply all scheduled updates; returns the signals whose value actually
    changed, sorted by name. *)

val snapshot : t -> (string * Ast.value) list
(** Current value of every signal, sorted by name. *)
