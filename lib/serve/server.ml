(** Socket server; see the interface. *)

(* --- endpoints ---------------------------------------------------------- *)

type endpoint =
  | Unix_path of string
  | Tcp of { host : string; port : int }

let endpoint_of_string s =
  if s = "" then Error "empty endpoint"
  else if String.contains s '/' then Ok (Unix_path s)
  else
    match String.rindex_opt s ':' with
    | None -> Ok (Unix_path s)
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 && host <> "" ->
        Ok (Tcp { host; port = p })
      | _ -> Error (Printf.sprintf "bad HOST:PORT endpoint %S" s))

let endpoint_to_string = function
  | Unix_path p -> p
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

let resolve_tcp ~host ~port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  with
  | ai :: _ -> Ok ai.Unix.ai_addr
  | [] | (exception Not_found) -> (
    (* No IPv4 binding; fall back to whatever the resolver offers. *)
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
    with
    | ai :: _ -> Ok ai.Unix.ai_addr
    | [] | (exception Not_found) ->
      Error (Printf.sprintf "cannot resolve %s:%d" host port))

let sockaddr_of_endpoint = function
  | Unix_path p -> Ok (Unix.ADDR_UNIX p)
  | Tcp { host; port } -> resolve_tcp ~host ~port

let socket_for_sockaddr addr =
  let domain = Unix.domain_of_sockaddr addr in
  Unix.socket domain Unix.SOCK_STREAM 0

let listen_on ep =
  let addr =
    match (ep, sockaddr_of_endpoint ep) with
    | Unix_path p, Ok addr ->
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      addr
    | Tcp _, Ok addr -> addr
    | _, Error msg -> raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "bind", msg))
  in
  let fd = socket_for_sockaddr addr in
  try
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind fd addr;
    Unix.listen fd 64;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> (fd, Some port)
    | Unix.ADDR_UNIX _ -> (fd, None)
  with exn ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise exn

let connect_endpoint ep =
  match sockaddr_of_endpoint ep with
  | Error msg -> Error msg
  | Ok addr -> (
    let fd = socket_for_sockaddr addr in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" (endpoint_to_string ep)
           (Unix.error_message err)))

(* --- configuration ------------------------------------------------------ *)

type config = {
  cfg_token : string option;
  cfg_max_connections : int;
  cfg_max_frame_bytes : int;
  cfg_idle_timeout_s : float option;
  cfg_write_timeout_s : float option;
  cfg_drain_grace_s : float;
}

let default_config =
  {
    cfg_token = None;
    cfg_max_connections = 256;
    cfg_max_frame_bytes = 4 * 1024 * 1024;
    cfg_idle_timeout_s = Some 300.0;
    cfg_write_timeout_s = Some 30.0;
    cfg_drain_grace_s = 5.0;
  }

(* Timing-independent token comparison: every byte of the presented
   token is inspected whatever the stored secret looks like, so reply
   latency leaks neither length-prefix matches nor content. *)
let constant_time_equal presented secret =
  let lp = String.length presented and ls = String.length secret in
  let acc = ref (lp lxor ls) in
  for i = 0 to lp - 1 do
    let s = if ls = 0 then 0 else Char.code secret.[i mod ls] in
    acc := !acc lor (Char.code presented.[i] lxor s)
  done;
  !acc = 0

(* --- server state ------------------------------------------------------- *)

type counters = {
  mutable ct_accepted : int;
  mutable ct_accept_errors : int;
  mutable ct_auth_failures : int;
  mutable ct_oversized_frames : int;
  mutable ct_reaped_timeouts : int;
  mutable ct_rejected_capacity : int;
}

type conn = {
  cn_id : int;
  cn_fd : Unix.file_descr;
  cn_requires_auth : bool;
  mutable cn_authed : bool;
}

type t = {
  sv_socket : string;
  sv_listeners : Unix.file_descr list;
  sv_tcp_port : int option;
  sv_scheduler : Scheduler.t;
  sv_config : config;
  sv_stop : bool Atomic.t;
  sv_conns : (int, conn) Hashtbl.t;
  sv_counters : counters;
  sv_mutex : Mutex.t;
  mutable sv_conn_seq : int;
  mutable sv_acceptor : Thread.t option;
}

let locked t f =
  Mutex.lock t.sv_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sv_mutex) f

let tcp_port t = t.sv_tcp_port

let server_stats t =
  locked t (fun () ->
      let c = t.sv_counters in
      [
        ("connections_open", Protocol.Int (Hashtbl.length t.sv_conns));
        ("connections_total", Protocol.Int c.ct_accepted);
        ("max_connections", Protocol.Int t.sv_config.cfg_max_connections);
        ("accept_errors", Protocol.Int c.ct_accept_errors);
        ("auth_failures", Protocol.Int c.ct_auth_failures);
        ("oversized_frames", Protocol.Int c.ct_oversized_frames);
        ("reaped_timeouts", Protocol.Int c.ct_reaped_timeouts);
        ("rejected_capacity", Protocol.Int c.ct_rejected_capacity);
      ])

(* --- request dispatch --------------------------------------------------- *)

let dispatch t req =
  match req with
  | Protocol.Auth _ -> assert false (* handled by the connection loop *)
  | Protocol.Ping -> Protocol.ok [ ("pong", Protocol.Bool true) ]
  | Protocol.Stats ->
    Protocol.ok
      (Scheduler.stats t.sv_scheduler
      @ [ ("server", Protocol.Obj (server_stats t)) ])
  | Protocol.Submit { sb_id; sb_job } -> (
    match Scheduler.submit t.sv_scheduler ?id:sb_id sb_job with
    | Ok view -> Protocol.ok (Scheduler.view_fields view)
    | Error rj -> (
      match rj.Scheduler.rj_retry_after_ms with
      | Some ms ->
        Protocol.error_with rj.Scheduler.rj_reason
          [ ("busy", Protocol.Bool true); ("retry_after_ms", Protocol.Int ms) ]
      | None -> Protocol.error rj.Scheduler.rj_reason))
  | Protocol.Status id -> (
    match Scheduler.status t.sv_scheduler id with
    | Some view -> Protocol.ok (Scheduler.view_fields view)
    | None -> Protocol.error (Printf.sprintf "unknown job %S" id))
  | Protocol.Result { rs_id; rs_wait } -> (
    match Scheduler.result t.sv_scheduler ~wait:rs_wait rs_id with
    | Some view -> Protocol.ok (Scheduler.view_fields view)
    | None -> Protocol.error (Printf.sprintf "unknown job %S" rs_id))
  | Protocol.Cancel id -> (
    match Scheduler.cancel t.sv_scheduler id with
    | Ok view -> Protocol.ok (Scheduler.view_fields view)
    | Error msg -> Protocol.error msg)
  | Protocol.Shutdown ->
    Atomic.set t.sv_stop true;
    Protocol.ok [ ("stopping", Protocol.Bool true) ]

let token_ok t presented =
  match t.sv_config.cfg_token with
  | None -> true
  | Some secret -> constant_time_equal presented secret

let bad_request_prefix = "bad request: "
let auth_failed = "authentication failed"

(* The per-frame step: [`Reply] keeps the connection, [`Close] sends one
   last reply and hangs up (failed or missing authentication). *)
let process t conn line =
  let decoded =
    match Protocol.parse line with
    | Error msg -> Error msg
    | Ok json -> Protocol.request_of_json json
  in
  match decoded with
  | Ok (Protocol.Auth token) ->
    if token_ok t token then begin
      conn.cn_authed <- true;
      `Reply (Protocol.ok [ ("authenticated", Protocol.Bool true) ])
    end
    else begin
      locked t (fun () ->
          t.sv_counters.ct_auth_failures <-
            t.sv_counters.ct_auth_failures + 1);
      `Close (Protocol.error auth_failed)
    end
  | Ok _ | Error _ when conn.cn_requires_auth && not conn.cn_authed ->
    locked t (fun () ->
        t.sv_counters.ct_auth_failures <- t.sv_counters.ct_auth_failures + 1);
    `Close
      (Protocol.error "authentication required: send {\"op\":\"auth\"} first")
  | Ok req ->
    `Reply
      (try dispatch t req
       with exn ->
         Protocol.error
           (Printf.sprintf "request raised %s" (Printexc.to_string exn)))
  | Error msg -> `Reply (Protocol.error (bad_request_prefix ^ msg))

(* --- connection handling ------------------------------------------------ *)

(* A connection the server gives up on: the peer sat idle past the read
   timeout or would not drain our replies past the write timeout. *)
exception Reap of string

let write_all fd b n =
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Reap "write timeout")
  in
  go 0

(* Render [j] and its newline into [out], then write them: the reply's
   only copy is the one out of the buffer. *)
let write_reply fd out j =
  Buffer.clear out;
  Protocol.write out j;
  Buffer.add_char out '\n';
  write_all fd (Buffer.to_bytes out) (Buffer.length out)

let set_timeouts config fd =
  let set opt v =
    try Unix.setsockopt_float fd opt v with Unix.Unix_error _ -> ()
  in
  Option.iter (set Unix.SO_RCVTIMEO) config.cfg_idle_timeout_s;
  Option.iter (set Unix.SO_SNDTIMEO) config.cfg_write_timeout_s

let handle_connection t conn =
  let fd = conn.cn_fd in
  set_timeouts t.sv_config fd;
  let max_frame = t.sv_config.cfg_max_frame_bytes in
  let chunk_len = 8192 in
  (* Received bytes not yet taken as frames live in [!inbuf] from [!lo]
     to [!hi]; [!searched] is where the newline scan resumes. *)
  let inbuf = ref (Bytes.create chunk_len) in
  let lo = ref 0 and hi = ref 0 in
  let searched = ref 0 in
  let discarding = ref false in
  let out = Buffer.create 4096 in
  let reply j = write_reply fd out j in
  let oversized () =
    locked t (fun () ->
        t.sv_counters.ct_oversized_frames <-
          t.sv_counters.ct_oversized_frames + 1);
    reply
      (Protocol.error (Printf.sprintf "frame exceeds %d byte limit" max_frame))
  in
  let drop_pending () =
    lo := 0;
    hi := 0;
    searched := 0
  in
  (* Room for one more chunk after [!hi]: slide the pending bytes to the
     front, and grow only if they fill the buffer. *)
  let make_room () =
    if Bytes.length !inbuf - !hi < chunk_len then begin
      let pending = !hi - !lo in
      let dst =
        if pending + chunk_len <= Bytes.length !inbuf then !inbuf
        else Bytes.create (max (2 * Bytes.length !inbuf) (pending + chunk_len))
      in
      Bytes.blit !inbuf !lo dst 0 pending;
      inbuf := dst;
      searched := !searched - !lo;
      lo := 0;
      hi := pending
    end
  in
  (* Pull the next newline-terminated frame, enforcing the frame-size
     cap: an unterminated frame past the cap costs one error reply, the
     rest of it is swallowed up to its newline, and the connection stays
     protocol-correct for the next frame. *)
  let rec take_line () =
    let nl = ref !searched in
    while !nl < !hi && Bytes.unsafe_get !inbuf !nl <> '\n' do
      incr nl
    done;
    if !nl < !hi then begin
      let start = !lo and len = !nl - !lo in
      lo := !nl + 1;
      searched := !lo;
      if !lo = !hi then drop_pending ();
      if !discarding then begin
        (* the tail of an oversized frame, already answered *)
        discarding := false;
        take_line ()
      end
      else if len > max_frame then begin
        (* a terminated frame can still arrive over the cap in one
           burst — same answer as the unterminated case *)
        oversized ();
        take_line ()
      end
      else `Line (Bytes.sub_string !inbuf start len)
    end
    else begin
      searched := !hi;
      if (not !discarding) && !hi - !lo > max_frame then begin
        oversized ();
        drop_pending ();
        discarding := true
      end
      else if !discarding then drop_pending ();
      make_room ();
      match Unix.read fd !inbuf !hi chunk_len with
      | 0 ->
        if !hi > !lo && not !discarding then begin
          (* A torn final line (no trailing newline before the peer
             died) still gets its one reply before the close. *)
          let line = Bytes.sub_string !inbuf !lo (!hi - !lo) in
          drop_pending ();
          `Last line
        end
        else `Eof
      | n ->
        hi := !hi + n;
        take_line ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> take_line ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Reap "idle timeout")
      | exception Unix.Unix_error _ -> `Eof
    end
  in
  let rec loop () =
    match take_line () with
    | `Eof -> ()
    | `Last line -> (
      match process t conn line with
      | `Reply j | `Close j -> reply j)
    | `Line line -> (
      match process t conn line with
      | `Reply j ->
        reply j;
        loop ()
      | `Close j -> reply j)
  in
  try loop () with
  | Reap _ ->
    locked t (fun () ->
        t.sv_counters.ct_reaped_timeouts <-
          t.sv_counters.ct_reaped_timeouts + 1)
  | Unix.Unix_error _ | Sys_error _ -> ()

let register_conn t ~requires_auth fd =
  locked t (fun () ->
      if Hashtbl.length t.sv_conns >= t.sv_config.cfg_max_connections then begin
        t.sv_counters.ct_rejected_capacity <-
          t.sv_counters.ct_rejected_capacity + 1;
        None
      end
      else begin
        t.sv_conn_seq <- t.sv_conn_seq + 1;
        t.sv_counters.ct_accepted <- t.sv_counters.ct_accepted + 1;
        let conn =
          {
            cn_id = t.sv_conn_seq;
            cn_fd = fd;
            cn_requires_auth = requires_auth;
            cn_authed = not requires_auth;
          }
        in
        Hashtbl.replace t.sv_conns conn.cn_id conn;
        Some conn
      end)

let unregister_conn t conn =
  locked t (fun () -> Hashtbl.remove t.sv_conns conn.cn_id)

let serve_conn t conn =
  Fun.protect
    ~finally:(fun () ->
      unregister_conn t conn;
      try Unix.close conn.cn_fd with Unix.Unix_error _ -> ())
    (fun () -> handle_connection t conn)

let reject_capacity t fd =
  set_timeouts t.sv_config fd;
  (try
     write_reply fd (Buffer.create 128)
       (Protocol.error_with "server at connection capacity"
          [
            ("busy", Protocol.Bool true);
            ( "retry_after_ms",
              Protocol.Int (Scheduler.retry_after_ms t.sv_scheduler) );
          ])
   with Reap _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- accept loop -------------------------------------------------------- *)

let accept_loop t =
  (* Transient accept failures (EMFILE/ENFILE under fd exhaustion,
     ENOBUFS, ...) must never kill the acceptor: count them, back off
     and keep accepting — a daemon that silently stops answering its
     socket is worse than one that sheds load for a while. *)
  let backoff = ref 0.05 in
  let accept_one lfd =
    match Unix.accept lfd with
    | fd, peer ->
      backoff := 0.05;
      let requires_auth =
        t.sv_config.cfg_token <> None
        && match peer with Unix.ADDR_INET _ -> true | Unix.ADDR_UNIX _ -> false
      in
      (match register_conn t ~requires_auth fd with
      | Some conn ->
        ignore (Thread.create (fun () -> serve_conn t conn) () : Thread.t)
      | None -> reject_capacity t fd)
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED
           | Unix.EBADF), _, _) ->
      ()
    | exception Unix.Unix_error (_, _, _) ->
      locked t (fun () ->
          t.sv_counters.ct_accept_errors <-
            t.sv_counters.ct_accept_errors + 1);
      Thread.delay !backoff;
      backoff := Float.min 1.0 (!backoff *. 2.0)
  in
  let rec loop () =
    if Atomic.get t.sv_stop then ()
    else
      (* Poll with a timeout so a shutdown requested on a connection
         thread is noticed without another client connecting. *)
      match Unix.select t.sv_listeners [] [] 0.2 with
      | [], _, _ -> loop ()
      | ready, _, _ ->
        List.iter accept_one ready;
        loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) ->
        if Atomic.get t.sv_stop then () else loop ()
      | exception Unix.Unix_error _ ->
        locked t (fun () ->
            t.sv_counters.ct_accept_errors <-
              t.sv_counters.ct_accept_errors + 1);
        Thread.delay !backoff;
        backoff := Float.min 1.0 (!backoff *. 2.0);
        loop ()
  in
  loop ()

(* --- lifecycle ---------------------------------------------------------- *)

let start ?(config = default_config) ?listen ~socket scheduler =
  (match listen with
  | Some (Unix_path _) ->
    invalid_arg "Server.start: listen endpoint must be HOST:PORT"
  | _ -> ());
  let unix_fd, _ = listen_on (Unix_path socket) in
  let tcp =
    try Option.map listen_on listen
    with exn ->
      (try Unix.close unix_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      raise exn
  in
  let t =
    {
      sv_socket = socket;
      sv_listeners =
        (unix_fd :: match tcp with Some (fd, _) -> [ fd ] | None -> []);
      sv_tcp_port = Option.bind tcp snd;
      sv_scheduler = scheduler;
      sv_config = config;
      sv_stop = Atomic.make false;
      sv_conns = Hashtbl.create 64;
      sv_counters =
        {
          ct_accepted = 0;
          ct_accept_errors = 0;
          ct_auth_failures = 0;
          ct_oversized_frames = 0;
          ct_reaped_timeouts = 0;
          ct_rejected_capacity = 0;
        };
      sv_mutex = Mutex.create ();
      sv_conn_seq = 0;
      sv_acceptor = None;
    }
  in
  t.sv_acceptor <- Some (Thread.create accept_loop t);
  t

let stop t = Atomic.set t.sv_stop true

let run t =
  (match t.sv_acceptor with
  | Some acceptor ->
    let rec wait () =
      if Atomic.get t.sv_stop then ()
      else begin
        Thread.delay 0.05;
        wait ()
      end
    in
    wait ();
    Thread.join acceptor;
    t.sv_acceptor <- None
  | None -> ());
  (* Graceful drain: stop accepting first, then finish the in-flight
     batch (pending jobs stay journaled for the next lifetime), then
     give connection threads a grace period to flush final replies
     before severing the stragglers. *)
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.sv_listeners;
  (try Unix.unlink t.sv_socket with Unix.Unix_error _ -> ());
  Scheduler.shutdown t.sv_scheduler;
  let deadline = Unix.gettimeofday () +. t.sv_config.cfg_drain_grace_s in
  let rec drain () =
    let remaining = locked t (fun () -> Hashtbl.length t.sv_conns) in
    if remaining > 0 && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.02;
      drain ()
    end
  in
  drain ();
  locked t (fun () ->
      Hashtbl.iter
        (fun _ conn ->
          try Unix.shutdown conn.cn_fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        t.sv_conns)
