(** JSON: the one codec for every machine-readable output — the
    [--json] reports of lint, litmus, explore and fault campaigns, and
    the [mrefine serve] wire protocol.

    A hand-rolled parser and printer (no external dependency), covering
    objects, arrays, strings with standard escapes (including [\uXXXX],
    encoded to UTF-8), integers, floats, booleans and null.  The parser
    is for untrusted input: it never raises, and it rejects nesting
    deeper than {!max_depth} before doing work proportional to it.  It
    is strict where RFC 8259 is: a [\u] escape takes exactly four hex
    digits, and numbers have no leading zeros and no dot or exponent
    without a digit after it.

    Both directions move strings in runs: the printer escapes a string
    into the output buffer one run of plain bytes at a time, and the
    parser copies each run up to the next quote or backslash in one
    call, so a long string costs a scan and a blit, not a call per
    byte. *)

(** A JSON document. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of string
      (** a number the renderer has already formatted (e.g. with
          [%.4f]), printed verbatim; {!parse} never produces it *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val fixed : int -> float -> t
(** [fixed digits f] is [f] printed with [digits] decimals, or [Null]
    when [f] is not finite. *)

val to_string : t -> string
(** Compact one-line rendering; strings are escaped so the result never
    contains a raw newline.  Non-finite floats print as [null]. *)

val write : Buffer.t -> t -> unit
(** [write buf j] appends {!to_string}[ j] to [buf] without building the
    string first. *)

val max_depth : int
(** The deepest nesting of arrays and objects {!parse} accepts. *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    garbage is an error). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val string_field : ?default:string -> string -> t -> (string, string) result
val int_field : ?default:int -> string -> t -> (int, string) result
val float_field : string -> t -> (float option, string) result
val bool_field : ?default:bool -> string -> t -> (bool, string) result

val string_list_field :
  ?default:string list -> string -> t -> (string list, string) result
(** A field holding an array of strings (numbers are stringified). *)
