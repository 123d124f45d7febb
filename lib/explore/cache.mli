(** Content-hashed memoization of candidate evaluations.  A cache maps a
    key — the {!Checkpoint.Blob.digest} of (spec digest, canonical
    partition, model) as built by {!Evaluate} — to a {!Checkpoint.Blob}
    blob (a value marshalled behind the build stamp), in a
    mutex-protected in-memory table optionally backed by a directory on
    disk (one file per key, written atomically), so repeated sweeps and
    annealing restarts never re-refine identical candidates, across
    processes.

    The value type is the caller's: each {e key domain} must store one
    type only (the marshalling round-trip is untyped), so callers mixing
    entry kinds in one cache must separate them by a key-component
    prefix, as {!Evaluate} does for its refinement and lint entries.
    Values must be marshallable (no closures); {!Evaluate.metrics} is.

    Thread-safety: all operations may be called concurrently from
    multiple domains.  Two domains racing on the same missing key may
    both compute it; both observe the same (deterministic) value, so
    results never depend on the interleaving. *)

type t

val create :
  ?dir:string -> ?max_entries:int -> ?max_bytes:int -> unit -> t
(** A fresh, empty cache.  With [dir], entries are also persisted under
    that directory (created if missing) and looked up there on an
    in-memory miss.  Each file is one {!Checkpoint.Blob.frame}, so an
    unreadable, truncated (e.g. a partial write surviving a crash) or
    bit-rotted file reads as a miss, and so does a blob written by
    another build (a different {!Checkpoint.Blob.stamp}); the entry is
    then recomputed and rewritten.

    [max_entries] / [max_bytes] bound the {e in-memory} resident set: a
    long-lived process (the [mrefine serve] daemon) cannot grow without
    limit under sustained traffic.  When either cap is exceeded the
    least-recently-used entries are shed from memory — entries backed by
    [dir] were already persisted at add time, so eviction demotes them
    to disk and a later lookup silently re-promotes them; without [dir]
    an evicted entry is recomputed on its next miss.  Disk usage is
    never bounded by these caps.
    @raise Invalid_argument when a cap is < 1. *)

val find_or_add : ?count_stats:bool -> t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key compute] returns the cached value for [key]
    ([..., true]) or runs [compute], stores the result, and returns it
    ([..., false]).  Each call counts as one lookup in {!stats} unless
    [~count_stats:false] — secondary entries (e.g. memoized lint passes)
    opt out so sweep hit/miss accounting keeps meaning evaluations. *)

val mem : t -> string -> bool
(** Whether [key] is resident in memory or on disk (not counted as a
    lookup). *)

type stats = { hits : int; misses : int }

val stats : t -> stats

val resident_entries : t -> int
(** Entries currently held in memory (excluding disk-only entries). *)

val resident_bytes : t -> int
(** Approximate resident payload size: summed key + blob bytes. *)

val evictions : t -> int
(** LRU evictions performed since creation. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 when no lookups happened. *)

val reset_stats : t -> unit
(** Zero the hit/miss counters, keeping the entries. *)
