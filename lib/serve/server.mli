(** The daemon's front door: a Unix-domain stream socket — and
    optionally a TCP listener — speaking the newline-delimited JSON
    protocol of {!Protocol}, one thread per connection, all connections
    multiplexed onto one {!Scheduler}.

    Error containment: a malformed or truncated request line costs one
    [{"ok":false,...}] reply — the connection survives, and so does the
    daemon.  A frame that grows past {!config.cfg_max_frame_bytes}
    without a newline costs one error reply and the rest of that frame
    is discarded; the connection stays protocol-correct.  Transient
    accept failures (fd exhaustion and friends) are counted, backed off
    and retried — they never kill the acceptor.

    Authentication: with a configured token, TCP connections must
    present [{"op":"auth","token":...}] as their first frame
    (constant-time comparison); anything else gets one error reply and
    the connection is closed.  Unix-socket connections are trusted by
    file permissions and never required to authenticate, though an
    offered token is still validated.

    Shutdown is a graceful drain: a [shutdown] request (or {!stop})
    stops the accept loop, finishes the in-flight batch (pending jobs
    stay journaled for the next lifetime), gives connection threads a
    grace period to flush final replies, then severs stragglers and
    returns from {!run}. *)

(** Where a listener binds or a client connects: a Unix-socket path or
    a TCP host/port. *)
type endpoint =
  | Unix_path of string
  | Tcp of { host : string; port : int }

val endpoint_of_string : string -> (endpoint, string) result
(** Parse an endpoint: a string containing ['/'] or without a
    [:port] suffix is a Unix-socket path; [HOST:PORT] with a numeric
    port is TCP.  Port [0] asks the kernel for an ephemeral port (see
    {!tcp_port}). *)

val endpoint_to_string : endpoint -> string

val listen_on : endpoint -> Unix.file_descr * int option
(** Bind and listen on an endpoint (used by {!start} and the chaos
    proxy): a stale socket file is replaced, and a TCP address (IPv4
    preferred) is reusable at once.  Returns the listening socket and,
    for TCP, the bound port (the kernel's choice for port [0]).
    @raise Unix.Unix_error when the endpoint cannot be resolved or
    bound. *)

val connect_endpoint : endpoint -> (Unix.file_descr, string) result
(** Client-side connect to either endpoint kind (used by {!Client} and
    the chaos proxy). *)

val bad_request_prefix : string
(** The start of the error reply to a request line the daemon could not
    decode.  For a line the client knows to be well formed, it means the
    bytes were damaged in transit. *)

val auth_failed : string
(** The error reply to a token the daemon read and refused.  Any other
    reply to an auth frame means the frame did not arrive intact. *)

(** Serving limits and the shared-secret token.  All fields have
    production defaults in {!default_config}. *)
type config = {
  cfg_token : string option;
      (** shared secret required (TCP only) as the first frame *)
  cfg_max_connections : int;
      (** accepted connections beyond this get one structured error
          reply with a [retry_after_ms] hint and are closed *)
  cfg_max_frame_bytes : int;
      (** cap on one request frame; an unterminated frame past it costs
          one error reply and is discarded up to its newline *)
  cfg_idle_timeout_s : float option;
      (** reap a connection that sends nothing for this long *)
  cfg_write_timeout_s : float option;
      (** reap a connection that will not drain our replies *)
  cfg_drain_grace_s : float;
      (** how long {!run} waits for connections to finish on shutdown *)
}

val default_config : config
(** No token, 256 connections, 4 MiB frames, 300 s idle timeout, 30 s
    write timeout, 5 s drain grace. *)

type t

val start :
  ?config:config -> ?listen:endpoint -> socket:string -> Scheduler.t -> t
(** Bind and listen on [socket] (an existing stale socket file is
    replaced) — and, with [listen], additionally on a TCP endpoint
    (with [SO_REUSEADDR]) — and start accepting in background threads.
    @raise Unix.Unix_error when a path or address cannot be bound.
    @raise Invalid_argument when [listen] is a [Unix_path]. *)

val tcp_port : t -> int option
(** The bound TCP port, when started with [listen] — the actual kernel
    choice when the requested port was [0]. *)

val run : t -> unit
(** Block until a [shutdown] request (or {!stop}) terminates the
    server, then drain: stop accepting, shut the scheduler down, wait
    out the drain grace for open connections, remove the socket file. *)

val stop : t -> unit
(** Request termination from another thread (e.g. a signal handler);
    idempotent.  {!run} performs the actual teardown. *)
