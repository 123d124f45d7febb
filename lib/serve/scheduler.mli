(** The daemon's job scheduler: an id-keyed job table whose pending jobs
    a dispatcher thread drains in batches through the supervised domain
    pool ({!Explore.Pool.supervise}) — a worker crash is confined to its
    job and surfaces as a [failed] state, never as a dead daemon.

    {b Lifecycle.}  [pending → running → done | failed | cancelled].
    Submits are idempotent under client-supplied ids: resubmitting an id
    already in the table returns its current state instead of enqueueing
    a duplicate — the retry idiom for clients surviving a daemon
    restart.

    {b Cancellation and deadlines.}  Every job carries an atomic cancel
    flag, or-ed with its deadline into the cooperative poll that
    {!Jobs.run} threads down to the simulation kernels
    ({!Sim.Runtime.hooks.h_poll}).  Cancelling a pending job is
    immediate; cancelling a running job stops it at its next poll.

    {b Crash safety.}  With a journal, every submitted job's JSON is
    checkpointed before it is acknowledged (["spec/<id>"]), every
    terminal outcome when it is reached (["done/<id>"]), and every
    cancellation (["cancel/<id>"]).  A restarted scheduler replays the
    journal: finished jobs come back with their results, and jobs that
    were pending or running when the process died are {e re-enqueued}
    and run again — a SIGKILL mid-batch costs the partial batch, never
    an acknowledged result. *)

type t

val default_max_jobs : int
(** 4096: {!create}'s default [max_jobs]. *)

val default_max_pending : int
(** 256: {!create}'s default [max_pending]. *)

val create :
  ?journal:Checkpoint.Journal.t ->
  ?jobs:int ->
  ?max_jobs:int ->
  ?max_pending:int ->
  ?default_deadline_s:float ->
  Session.t ->
  t
(** Start a scheduler (and its dispatcher thread) over the shared
    session.  [jobs] is the domain count per batch (default 1 — inline
    in the dispatcher's domain, which keeps the simulator's domain-local
    session cache hot across batches; raise it to trade that warmth for
    intra-batch parallelism); [max_jobs] bounds the retained job
    table (default {!default_max_jobs}; submits beyond it are rejected
    until old jobs age out — the hard stop that keeps a daemon's memory
    bounded); [max_pending] is the admission-control soft cap (default
    {!default_max_pending}): when
    the queue is that deep, submits are turned away with a
    [retry_after_ms] hint instead of being enqueued, so clients back off
    while the queue drains; [default_deadline_s] applies to jobs that
    set no deadline of their own.  With [journal], previously recorded
    jobs are replayed as described above — in-flight ones are
    re-enqueued immediately (replay is exempt from [max_pending]).
    @raise Invalid_argument when [jobs < 1], [max_jobs < 1] or
    [max_pending < 1]. *)

val journal_meta : string
(** The {!Checkpoint.Journal} meta string of scheduler journals (binds
    the file to the serve journal format version). *)

(** A snapshot of one job, as rendered into replies. *)
type view = {
  v_id : string;
  v_state : Protocol.state;
  v_output : string option;  (** the report, in terminal [Done] state *)
  v_error : string option;  (** failure or cancellation message *)
  v_meta : (string * Protocol.json) list;
  v_replayed : bool;  (** the outcome was restored from the journal *)
}

val view_fields : view -> (string * Protocol.json) list
(** The reply-envelope fields of a snapshot ([id], [state], and when
    present [output] / [error] / [meta] / [replayed]). *)

(** Why a submit was refused.  [rj_retry_after_ms] is the backpressure
    hint of a queue-depth rejection: the queue is draining, come back in
    roughly that long (queue depth × recent mean per-job latency ÷
    worker count, clamped to [25 ms, 60 s]).  Hard rejections (table
    full, shutting down) carry no hint. *)
type reject = {
  rj_reason : string;
  rj_retry_after_ms : int option;
}

val submit :
  t -> ?id:string -> Protocol.json -> (view, reject) result
(** Enqueue a job (or return the existing state under an already-used
    id — idempotent resubmits bypass admission control).  Refused with a
    [retry_after_ms] hint when the pending queue is at [max_pending],
    and without one when the job table is full or the scheduler is
    shutting down. *)

val retry_after_ms : t -> int
(** The backpressure hint for the current queue depth — what a busy
    rejection would advise right now.  Used by the server when turning
    away work for non-queue reasons (e.g. the connection cap). *)

val status : t -> string -> view option

val result : t -> wait:bool -> string -> view option
(** Like {!status}, but with [wait] the call blocks until the job
    reaches a terminal state.  [None] for unknown ids. *)

val cancel : t -> string -> (view, string) result
(** Request cancellation.  Terminal jobs are returned unchanged (a
    cancel is not an error twice); unknown ids fail. *)

val stats : t -> (string * Protocol.json) list
(** Counters for the [stats] reply: jobs by state, batches dispatched,
    busy/full submit rejections, the recent mean per-job latency behind
    the backpressure hint, the session's elaboration-cache and
    refinement-memo hits/misses/entries, the simulator session store
    ([sim_sessions]: golden-memo hits and misses, sessions resident,
    checkpoints held; see {!Sim.Engine.sessions_stats}), and the shared
    evaluation cache's hit/miss/resident/eviction figures.

    [sim_sessions] is the store of the calling domain.  The stats
    handler runs in the daemon's main domain, where the dispatcher runs
    every job under [--jobs 1]; with [--jobs > 1] the jobs that land on
    pool domains are not seen. *)

val shutdown : t -> unit
(** Stop accepting submits, wake every waiter, finish the in-flight
    batch and join the dispatcher.  Idempotent. *)
