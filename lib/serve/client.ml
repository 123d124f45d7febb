(** Daemon client with retries; see the interface. *)

type t = {
  endpoint : Server.endpoint;
  token : string option;
  retries : int;
  backoff_ms : int;
  timeout_s : float option;
  rng : Random.State.t;
  mutable conn : (in_channel * out_channel) option;
}

let create ?token ?timeout_s ~retries ~backoff_ms endpoint =
  let rng = Random.State.make_self_init () in
  { endpoint; token; retries; backoff_ms; timeout_s; rng; conn = None }

let close t =
  Option.iter (fun (ic, _) -> close_in_noerr ic) t.conn;
  t.conn <- None

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let error_of reply =
  match Protocol.member "error" reply with
  | Some (Protocol.String e) -> Some e
  | _ -> None

(* Dial and authenticate.  [`Refused] is a token the daemon read and
   turned down, which no retry can fix; [`Failed] is a transport failure,
   an auth frame damaged on its way included, and names the endpoint
   once: {!Server.connect_endpoint}'s messages already do. *)
let dial t =
  match Server.connect_endpoint t.endpoint with
  | Error msg -> Error (`Failed msg)
  | Ok fd -> (
    (match t.timeout_s with
    | Some s when s > 0. -> (
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
      with Unix.Unix_error _ -> ())
    | _ -> ());
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let failed e =
      close_in_noerr ic;
      Error e
    in
    let dial_failed msg =
      failed
        (`Failed
          (Printf.sprintf "cannot connect to %s: %s"
             (Server.endpoint_to_string t.endpoint)
             msg))
    in
    match t.token with
    | None -> Ok (ic, oc)
    | Some tok -> (
      let auth = Protocol.request_to_json (Protocol.Auth tok) in
      match
        send_line oc (Protocol.to_string auth);
        input_line ic
      with
      | exception (End_of_file | Sys_error _) ->
        dial_failed "connection closed during authentication"
      | reply -> (
        match Protocol.parse reply with
        | Ok r when Protocol.member "ok" r = Some (Protocol.Bool true) ->
          Ok (ic, oc)
        | Ok r -> (
          match error_of r with
          | Some e when e = Server.auth_failed -> failed (`Refused e)
          | e -> dial_failed (Option.value e ~default:reply))
        | Error msg ->
          dial_failed ("unreadable authentication reply: " ^ msg))))

let backoff t attempt hint_ms =
  let d =
    match hint_ms with
    | Some ms -> float_of_int ms /. 1000.
    | None ->
      float_of_int t.backoff_ms /. 1000.
      *. (2. ** float_of_int attempt)
      *. (0.5 +. Random.State.float t.rng 1.0)
  in
  Unix.sleepf (Float.min 10.0 d)

(* What a reply asks of the retry loop: a busy daemon's hint, a reply
   damaged in transit (not JSON, or the daemon could not read what we
   sent), or nothing. *)
let classify reply =
  match Protocol.parse reply with
  | Error _ -> `Damaged
  | Ok r when Protocol.member "ok" r = Some (Protocol.Bool false) -> (
    match (Protocol.member "retry_after_ms" r, error_of r) with
    | Some (Protocol.Int ms), _ -> `Busy ms
    | _, Some e when String.starts_with ~prefix:Server.bad_request_prefix e ->
      `Damaged
    | _ -> `Final)
  | Ok _ -> `Final

let rpc ?(resend = true) t line =
  let rec attempt n =
    let retry ?hint msg =
      close t;
      if n >= t.retries then Error msg
      else begin
        backoff t n hint;
        attempt (n + 1)
      end
    in
    let lost msg =
      if resend then retry msg
      else begin
        close t;
        Error msg
      end
    in
    match match t.conn with Some c -> Ok c | None -> dial t with
    | Error (`Refused msg) -> Error msg
    | Error (`Failed msg) -> retry msg
    | Ok ((ic, oc) as c) -> (
      t.conn <- Some c;
      match send_line oc line with
      | exception Sys_error msg -> retry ("connection lost: " ^ msg)
      | () -> (
        match input_line ic with
        | exception End_of_file -> lost "daemon closed the connection"
        | exception Sys_error msg -> lost ("connection lost: " ^ msg)
        | reply -> (
          match classify reply with
          | `Busy ms when n < t.retries -> retry ~hint:ms reply
          | `Damaged when resend && n < t.retries -> retry reply
          | _ -> Ok reply)))
  in
  attempt 0

let call ?resend t req =
  rpc ?resend t (Protocol.to_string (Protocol.request_to_json req))

let submit t ?id job =
  let id =
    match id with
    | None when t.retries > 0 ->
      let bits () = Random.State.bits t.rng in
      Some (Printf.sprintf "c-%08x%08x" (bits ()) (bits ()))
    | id -> id
  in
  call t (Protocol.Submit { sb_id = id; sb_job = job })
