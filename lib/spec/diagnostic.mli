(** Structured analysis diagnostics.

    Shared currency of the type checker, the refinement invariant
    checks and the lint passes: a stable code, a severity, the
    producing pass, a behavior path, a location string and a message.
    Diagnostics sort by (severity, code, path, location) so reported
    lists are stable across runs, and render as one-line text or
    JSON. *)

type severity = Info | Warning | Error

val severity_rank : severity -> int
(** [Error] ranks 0 (first), then [Warning], then [Info]. *)

val severity_name : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val severity_of_string : string -> severity option

type t = {
  d_code : string;  (** stable code, e.g. ["RACE001"] *)
  d_severity : severity;
  d_pass : string;  (** producing pass or checker, e.g. ["race"] *)
  d_path : string list;
      (** behavior path from the top (or [["procedure f"]]); [[]] when
          the finding is program-wide *)
  d_loc : string;  (** offending declaration / statement / expression, or [""] *)
  d_message : string;
}

val make :
  code:string ->
  severity:severity ->
  pass:string ->
  ?path:string list ->
  ?loc:string ->
  string ->
  t

val makef :
  code:string ->
  severity:severity ->
  pass:string ->
  ?path:string list ->
  ?loc:string ->
  ('a, unit, string, t) format4 ->
  'a
(** [Printf]-style constructor. *)

val compare : t -> t -> int
(** Orders by (severity, code, path, location, message). *)

val sort : t list -> t list
(** Stable report order; also drops exact duplicates. *)

val path_string : t -> string
(** The path joined with ["/"]. *)

val to_string : t -> string
(** One line: [severity[CODE] path: message (at loc)]. *)

val to_json : t -> Json.t
(** A JSON object with fields [code], [severity], [pass], [path],
    [loc], [message]. *)

val count : severity -> t list -> int
val errors : t list -> t list
val has_errors : t list -> bool
