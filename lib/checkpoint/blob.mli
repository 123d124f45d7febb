(** The one on-disk record codec, shared by {!Journal} and the explore
    cache.  A {e frame} guards a payload against torn writes and bit rot:
    {v
    [u32 big-endian length][16-byte MD5 of payload][payload]
    v}
    A {e blob} is a marshalled value behind the build {!stamp}, so a blob
    written by another build reads as [None] instead of being
    unmarshalled at a type it may not have. *)

val frame : string -> string
(** The frame around a payload, as one string (one [write] appends it). *)

val unframe : string -> string option
(** The payload of a string holding exactly one intact frame. *)

val input_frame : in_channel -> string option
(** The payload of the next intact frame; [None] at end of file or at a
    torn or corrupt frame.  A length field larger than the bytes left is
    rejected before anything is allocated. *)

val stamp : string
(** Digest of the library sources and the compiler version, generated at
    build time: every binary built from one tree carries the same one. *)

val to_blob : 'a -> string
(** {!stamp} followed by the marshalled value (no closures). *)

val of_blob : string -> 'a option
(** The value {!to_blob} stored, at the type it was stored at (one type
    per key); [None] for another stamp, a short blob or one [Marshal]
    cannot read. *)

val encode_pair : string -> string -> string
(** The journal's [(key, blob)] record payload; its bytes do not depend
    on the build. *)

val decode_pair : string -> (string * string) option

val digest : string list -> string
(** Stable hex digest of the components (order-sensitive): cache keys
    and journal metas. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents.
    @raise Sys_error when a component cannot be created. *)
