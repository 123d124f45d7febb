(** The wire protocol of the [mrefine serve] daemon: newline-delimited
    JSON over a Unix-domain stream socket.

    Each request is one JSON object on one line; each reply is one JSON
    object on one line.  Replies always carry an ["ok"] boolean; error
    replies add ["error"] with a message and never terminate the
    connection — a malformed line costs one error reply, not the
    session.  Requests never embed raw newlines (the JSON escapes cover
    them), so framing is trivial and torn requests are detected as
    parse errors.

    The JSON codec is {!Spec.Json}, included here so the wire's names
    ([Protocol.Obj], [Protocol.parse], the field accessors) stay where
    daemon clients look for them.  Its parser bounds nesting, so an
    unauthenticated peer cannot make one frame cost more than its
    length. *)

include module type of struct include Spec.Json end

type json = t

(** {1 Requests} *)

type request =
  | Auth of string
      (** present the shared-secret token; must be the first frame of a
          TCP connection when the daemon was started with a token *)
  | Submit of { sb_id : string option; sb_job : json }
      (** enqueue a job; [sb_id] makes the submit idempotent: resubmitting
          an existing id returns its current state instead of enqueueing
          a duplicate *)
  | Status of string
  | Result of { rs_id : string; rs_wait : bool }
      (** with [rs_wait], the reply is delayed until the job leaves the
          queue (done, failed or cancelled) *)
  | Cancel of string
  | Stats
  | Ping
  | Shutdown

val request_of_json : json -> (request, string) result
val request_to_json : request -> json

(** {1 Job states} *)

type state = Pending | Running | Done | Failed | Cancelled

val state_name : state -> string
(** ["pending"], ["running"], ["done"], ["failed"], ["cancelled"]. *)

val state_of_name : string -> state option

val terminal : state -> bool
(** Whether the state is final (done, failed or cancelled). *)

(** {1 Replies} *)

val ok : (string * json) list -> json
(** An [{"ok":true, ...}] reply. *)

val error : string -> json
(** An [{"ok":false,"error":msg}] reply. *)

val error_with : string -> (string * json) list -> json
(** {!error} with extra structured fields, e.g. the [retry_after_ms]
    backpressure hint attached to a busy rejection. *)
