(** The daemon's shared hot state: one {!Explore.Cache} for every job
    the process ever runs, plus a cross-request {e elaboration cache} —
    the promotion of the simulator's domain-local session cache to the
    whole daemon.

    The elaboration cache memoizes, under the content digest of the
    specification {e source text}, everything a job derives before doing
    real work: the parsed program, its source-line table, the access
    graph and the {!Explore.Evaluate} context.  Two requests carrying
    the same source — the common case for a client iterating on
    parameters — share one physical [Ast.program] value, which is
    exactly what {!Sim.Engine}'s domain-local session cache keys on, so
    repeated simulations of a served spec rewind a live kernel instead
    of re-elaborating it.

    All operations are thread-safe; connection handlers and pool workers
    share one session. *)

type elab = {
  el_digest : string;  (** content digest of the source text *)
  el_program : Spec.Ast.program;
  el_locations : Spec.Parser.locations;
  el_graph : Agraph.Access_graph.t;
  el_ctx : Explore.Evaluate.ctx;
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

type stats = {
  st_elab_hits : int;
  st_elab_misses : int;
  st_elab_entries : int;  (** resident elaborations *)
}

val stats : t -> stats
