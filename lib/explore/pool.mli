(** A fixed-size worker pool over OCaml 5 domains for embarrassingly
    parallel evaluation.  The pool guarantees a {e deterministic} result:
    results come back in input order, no matter how many domains
    execute them or how the scheduler interleaves them.  Work is handed
    out through a shared atomic counter, so long and short jobs balance
    automatically.

    {!supervise} isolates worker exceptions, retries each failing item
    with bounded exponential backoff and quarantines repeat offenders as
    structured {!failure}s — the degraded-but-valid mode long sweeps
    run under. *)

val default_jobs : unit -> int
(** The runtime's recommended domain count for this machine (at least 1). *)

(** {1 Supervised execution} *)

(** A quarantined item: it failed its first run and every retry. *)
type failure = {
  f_index : int;  (** position of the item in the input list *)
  f_attempts : int;  (** total attempts, first try included *)
  f_exn : string;  (** printed exception of the last attempt *)
  f_backtrace : string;  (** backtrace of the last attempt, possibly [""] *)
}

type supervisor = {
  sv_retries : int;  (** extra attempts after the first failure *)
  sv_backoff_s : float;  (** delay before the first retry *)
  sv_max_backoff_s : float;  (** cap on the doubling backoff *)
}

val default_supervisor : supervisor
(** 2 retries, 0.05 s initial backoff, 1 s cap. *)

val backoff_delay : supervisor -> int -> float
(** The delay slept after failed attempt [k] (1-based):
    [min max_backoff (backoff * 2^(k-1))]. *)

val supervise :
  ?supervisor:supervisor ->
  jobs:int ->
  f:('a -> 'b) ->
  'a list ->
  ('b, failure) result list
(** Run every item under supervision on [min jobs (length items)]
    domains (the calling domain counts as one; [jobs <= 1] runs
    everything inline): an exception from [f] is confined
    to its item and retried up to [sv_retries] times with exponential
    backoff; an item that exhausts its retries is quarantined as a
    {!failure} while every other item still completes.  Results are in
    input order and — for a deterministic [f] — independent of [jobs].
    @raise Invalid_argument when [jobs < 1] or [sv_retries < 0]. *)
