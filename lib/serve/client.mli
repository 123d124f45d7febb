(** A client of the [mrefine serve] daemon: one cached connection to a
    {!Server.endpoint}, token authentication on dial, and one
    line-in/line-out round trip with a retry policy.  [mrefine client]
    and the serve tests both talk to the daemon through it.

    Retry policy: a failed attempt is retried at most [retries] more
    times, each after a jittered exponential backoff (base [backoff_ms],
    doubling per attempt, +/-50% jitter, capped at 10 s) or after the
    daemon's own [retry_after_ms] hint when a busy reply carries one.
    Every failed attempt drops the connection, and the next one
    re-dials.  Failures before the request is fully sent (dialing,
    writing) and busy replies are retried for every request.  Failures
    past the send are retried only for requests sent with [~resend:true]
    (the default): a reply that never came, a reply that is not JSON,
    or a daemon saying it could not read the request (its bytes were
    damaged in transit).  A refused token is permanent and never
    retried; an auth frame the daemon could not read is not a refusal.  When the retries run out on a busy or damaged reply, that
    reply is returned as is.

    Errors come back as [Error msg]; nothing here exits the process.  A
    process using it should ignore [SIGPIPE]: a write to a connection
    the daemon has dropped then fails as a retryable error instead of
    killing the process. *)

type t

val create :
  ?token:string ->
  ?timeout_s:float ->
  retries:int ->
  backoff_ms:int ->
  Server.endpoint ->
  t
(** A client of the daemon at the endpoint; it dials on the first
    request.  [token] is presented as the first frame of every
    connection.  [timeout_s], when positive, is the socket timeout of
    every read and write, and an expired one is a failed attempt.
    [retries] and [backoff_ms] set the retry policy. *)

val rpc : ?resend:bool -> t -> string -> (string, string) result
(** Send one request line and return the daemon's reply line under the
    retry policy.  [~resend:false] marks a request that must not run
    twice (shutdown, a raw line): it is never re-sent once it has been
    sent in full, and any reply but a busy one is returned as it came. *)

val call : ?resend:bool -> t -> Protocol.request -> (string, string) result
(** {!rpc} of an encoded request. *)

val submit :
  t -> ?id:string -> Protocol.json -> (string, string) result
(** Submit a job.  Without an [id] and with [retries > 0], a random one
    is picked first, so that every resent submit names the same job and
    the job runs once. *)

val close : t -> unit
(** Close the cached connection, if any.  A later request re-dials. *)
