(** Port-ordering semantics for multi-port memories.

    Interposes on the kernels' commit path: updates to signals owned by
    a memory port are diverted into that port's write FIFO and released
    at the kernels' release points (after each committed delta, and at
    quiescent rounds), in an order chosen by a seeded deterministic
    scheduler.  A (policy, seed, program) triple replays
    bit-identically, on both the event-driven {!Engine} and the polling
    {!Reference}.  Same-signal (per-location) order is preserved under
    every policy. *)

open Spec

type policy =
  | Sc  (** sequentially consistent — today's behavior, nothing diverted *)
  | Per_port_fifo
      (** each port's delta-groups commit atomically in issue order;
          inter-port interleavings chosen by the seeded scheduler *)
  | Relaxed of int
      (** per-port reordering within a bounded window (>= 1), one
          update at a time — simultaneous updates tear apart *)

val default_window : int
(** Window selected by the bare ["relaxed"] spelling. *)

val policy_of_string : string -> (policy, string) result
(** Accepts ["sc"], ["per-port-fifo"] (or ["fifo"]), ["relaxed"] and
    ["relaxed:N"]. *)

val policy_to_string : policy -> string

type t

val make :
  policy:policy -> seed:int -> port_of:(string -> string option) -> t
(** [port_of] classifies a committed signal update: [Some port] diverts
    it into that port's FIFO, [None] passes it through untouched. *)

val capture : t -> delta:int -> string -> Ast.value -> bool
(** Offer an update about to commit.  [true] = diverted (the kernel
    must drop the update); [false] = commit normally.  Updates captured
    from the same delta form one atomic group under [Per_port_fifo]. *)

val pending : t -> bool
(** Are any diverted updates still queued? *)

val release : t -> (string * Ast.value) list
(** Release queued updates at a kernel release point, scheduler's
    choice: one port's oldest delta-group ([Per_port_fifo]) or a single
    windowed update ([Relaxed]).  [[]] when all FIFOs are empty. *)

val diverted : t -> int
(** Total updates ever diverted into a FIFO. *)

val reordered : t -> int
(** Releases that overtook an older same-port entry (relaxed only). *)
