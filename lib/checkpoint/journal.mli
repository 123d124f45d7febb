(** Crash-safe append-only checkpoint journals.

    A journal records every {e definitive} result of a long-running
    computation (a sweep evaluation, a fault-campaign run) as a
    [key -> blob] pair, so a killed process can be resumed: completed
    keys replay from the journal and only the remainder is recomputed.

    On-disk format (all integers big-endian):
    {v
    "coref-journal-1\n"                        magic line
    [u32 length][16-byte MD5 of payload][payload]   repeated
    v}
    Each record is one {!Blob.frame}.  The first record's payload is the
    {e meta} string — a digest binding the journal to the producing
    configuration; {!open_} refuses to resume when it does not match.
    Every later payload is a {!Blob.encode_pair} [(key, blob)] pair,
    whose bytes do not depend on the build.

    Crash safety: records are appended in one [write] and fsynced, so
    after a [SIGKILL] the file is a valid journal followed by at most
    one torn record.  {!open_} stops at the first record whose length,
    checksum or decoding fails and truncates the file back to the last
    good record before reopening it for append — a torn tail costs one
    result, never the journal.  A file that ends inside its meta record
    was killed before the journal began and starts afresh; a whole meta
    record that does not read is damage, and {!open_} refuses it rather
    than truncate the records after it.

    All operations are thread-safe; worker domains may append
    concurrently. *)

type t

exception Journal_error of string

val open_ : path:string -> meta:string -> t
(** Open [path] for resume-and-append, creating it (and its parent
    directories) when missing.  Replays every intact record into memory
    and truncates any torn tail.
    @raise Journal_error naming [path] when the file or its directory
    cannot be created, opened or read, when the file is not a journal,
    when its meta record is damaged (the file is left untouched), or
    when it records a different [meta] (the journal belongs to a
    different specification or configuration). *)

val find : t -> string -> string option
(** The blob last recorded for a key, if any. *)

val append : t -> key:string -> string -> unit
(** Record one completed result: a single fsynced write.  Re-appending a
    key overrides earlier records on replay (last record wins). *)

val entries : t -> (string * string) list
(** Every replayed and appended [(key, blob)] pair, in append order. *)

val length : t -> int
(** Number of recorded entries (after last-wins dedup). *)

val close : t -> unit
(** Close the underlying descriptor.  Later {!append}s raise. *)
