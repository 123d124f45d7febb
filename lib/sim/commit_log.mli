(** A run's commit log: per signal, the delta cycle of every committed
    update, in commit order.  A kernel records into the log of its
    [h_log] hook ({!Runtime.hooks}) at commit time, before any memory
    ordering layer sees the update: every scheduled update, tagged with
    the delta cycle being committed.  The log of a fault-free (golden)
    run is the schedule occurrence-based faults aim at.

    Recording allocates nothing per commit but the doubling of a
    signal's array. *)

type t

val create : unit -> t
(** An empty log. *)

val record : t -> string -> int -> unit
(** [record log signal delta] appends one committed update. *)

val nth : t -> string -> int -> int option
(** [nth log signal k]: the delta cycle of the signal's [k]-th update
    (1-based), if the log holds that many. *)

val count_before : t -> string -> int -> int
(** [count_before log signal q]: how many of the signal's updates were
    committed in a delta cycle before [q]. *)

val counts : t -> (string, int) Hashtbl.t
(** How many updates of each signal the log holds (signals without an
    update are absent). *)

val append : t -> from:t -> unit
(** Append every update of [from] to the log, per signal in [from]'s
    order: what recording [from]'s run into the log would have left. *)

val to_list : t -> (string * int list) list
(** Every signal with its update deltas, sorted by signal name. *)
