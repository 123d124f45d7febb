(** The daemon's shared hot state: one {!Explore.Cache} for every job
    the process ever runs, plus a cross-request {e elaboration cache} —
    the promotion of the simulator's domain-local session cache to the
    whole daemon.

    The elaboration cache memoizes, under the content digest of the
    specification {e source text}, everything a job derives before doing
    real work: the parsed program, its source-line table and the
    {!Explore.Evaluate} context (which holds the access graph).  Two
    requests carrying the same source — the common case for a client
    iterating on parameters — share one physical [Ast.program] value.

    Each resident elaboration also carries a small memo of the designs
    refined from it ({!refined}).  Refinement is a deterministic
    function of (specification, design), so every fault campaign on one
    served (spec, design) simulates one physical refined program — which
    is exactly what {!Sim.Engine}'s domain-local session cache keys on:
    the engine session, its VM code and its golden-prefix checkpoints
    stay live from job to job instead of being rebuilt.  That reuse
    holds within one domain.  With [--jobs 1] every batch runs in the
    dispatcher's domain; with more, {!Explore.Pool} spawns fresh domains
    per batch, so jobs landing there save only the refine step.

    All operations are thread-safe; connection handlers and pool workers
    share one session. *)

type elab = {
  el_digest : string;  (** content digest of the source text *)
  el_program : Spec.Ast.program;
  el_locations : Spec.Parser.locations;
  el_ctx : Explore.Evaluate.ctx;  (** its access graph: {!Explore.Evaluate.graph} *)
}

type t

val elab_entries : int
(** The elaboration cache's bound (64 entries, LRU-evicted). *)

val create :
  ?cache_dir:string -> ?cache_entries:int -> ?cache_bytes:int -> unit -> t
(** A fresh session.  [cache_dir] / [cache_entries] / [cache_bytes] feed
    the shared {!Explore.Cache.create}.  Creating a session widens the
    per-domain simulator session cap ({!Sim.Engine.set_session_cap}) to
    8: a daemon juggles more concurrent programs than a CLI run.
    @raise Sys_error when the cache directory cannot be created. *)

val cache : t -> Explore.Cache.t
(** The shared evaluation cache, hot across every request. *)

val elaborate : t -> source:string -> (elab, string) result
(** Parse, validate and elaborate [source], or return the cached
    elaboration of an identical source.  Parse and validation errors
    are returned (never cached — they are cheap to rediscover and keep
    the table small). *)

val refined :
  t ->
  elab ->
  key:string ->
  (unit -> (Core.Refiner.t, string) result) ->
  (Core.Refiner.t, string) result
(** [refined t elab ~key refine]: the refinement of [elab] memoized
    under [key] (which must name the whole design), or [refine ()],
    remembered on success.  [refine] runs outside the lock; errors are
    returned and never cached.  The memo belongs to [elab]'s cache
    entry: once that elaboration is evicted its refinements go with it,
    and a job still holding it refines afresh and stores nothing. *)

type stats = {
  st_elab_hits : int;
  st_elab_misses : int;
  st_elab_entries : int;  (** resident elaborations *)
  st_refined_hits : int;
  st_refined_misses : int;  (** failed refinements count here too *)
  st_refined_entries : int;  (** refinements resident over all elaborations *)
}

val stats : t -> stats
