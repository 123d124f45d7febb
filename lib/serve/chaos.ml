(** Seeded fault-injecting proxy; see the interface. *)

module Rng = Partitioning.Rng

type fault =
  | Pass
  | Delay of { dl_every_bytes : int; dl_ms : int }
  | Drop_after of { dr_bytes : int }
  | Torn_write of { tw_bytes : int }
  | Garbage of { gb_bytes : int }
  | Reset

let fault_to_string = function
  | Pass -> "pass"
  | Delay { dl_every_bytes; dl_ms } ->
    Printf.sprintf "delay(%dms per %dB)" dl_ms dl_every_bytes
  | Drop_after { dr_bytes } -> Printf.sprintf "drop-after(%dB)" dr_bytes
  | Torn_write { tw_bytes } -> Printf.sprintf "torn-write(%dB)" tw_bytes
  | Garbage { gb_bytes } -> Printf.sprintf "garbage(%dB)" gb_bytes
  | Reset -> "reset"

(* The schedule is pure in (seed, index): each connection mixes its
   accept-order index into the seed and draws its fault from a private
   generator, so replaying a run needs only the seed — no shared RNG
   state to race on, no dependence on timing. *)
let plan ~seed i =
  let rng = Rng.create (seed lxor ((i + 1) * 0x9E3779B9)) in
  let roll = Rng.int rng 100 in
  if roll < 40 then Pass
  else if roll < 55 then
    Delay
      { dl_every_bytes = 256 + Rng.int rng 1792; dl_ms = 1 + Rng.int rng 20 }
  else if roll < 70 then Drop_after { dr_bytes = 64 + Rng.int rng 4096 }
  else if roll < 80 then Torn_write { tw_bytes = 1 + Rng.int rng 64 }
  else if roll < 90 then Garbage { gb_bytes = 1 + Rng.int rng 32 }
  else Reset

(* --- proxy -------------------------------------------------------------- *)

type t = {
  ch_fd : Unix.file_descr;
  ch_port : int option;
  ch_listen_path : string option;
  ch_upstream : Server.endpoint;
  ch_seed : int;
  ch_log : (int -> fault -> unit) option;
  ch_stop : bool Atomic.t;
  mutable ch_next : int;
  mutable ch_acceptor : Thread.t option;
}

let port t = t.ch_port

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let w = Unix.write fd buf off len in
      go (off + w) (len - w)
    end
  in
  go off len

(* Copy [src] to [dst] under the connection's fault: [torn_limit] cuts
   the copy after that many bytes, [delay] sleeps every so many bytes,
   and [budget] is the byte allowance shared by both directions of a
   [Drop_after] connection — once spent, the link goes dark without a
   FIN the peer can trust. *)
let pump ~torn_limit ~delay ~budget src dst =
  let buf = Bytes.create 4096 in
  let sent = ref 0 in
  let rec loop () =
    if !sent < torn_limit then begin
      let want = min (Bytes.length buf) (torn_limit - !sent) in
      match Unix.read src buf 0 want with
      | 0 -> ()
      | n ->
        let allowed =
          match budget with
          | None -> true
          | Some b -> Atomic.fetch_and_add b (-n) > 0
        in
        if allowed then begin
          write_all dst buf 0 n;
          sent := !sent + n;
          (match delay with
          | Some (every, ms) when !sent / every <> (!sent - n) / every ->
            Thread.delay (float_of_int ms /. 1000.0)
          | _ -> ());
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
    end
  in
  loop ();
  (try Unix.shutdown src Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
  try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let handle t client fault =
  match fault with
  | Reset -> close_quietly client
  | _ -> (
    match Server.connect_endpoint t.ch_upstream with
    | Error _ -> close_quietly client
    | Ok up ->
      (match fault with
      | Garbage { gb_bytes } -> (
        (* poison the first frame: the server answers with a parse
           error, which the client must treat as a failed attempt *)
        let junk = Bytes.make gb_bytes 'x' in
        try write_all up junk 0 gb_bytes with Unix.Unix_error _ -> ())
      | _ -> ());
      let budget =
        match fault with
        | Drop_after { dr_bytes } -> Some (Atomic.make dr_bytes)
        | _ -> None
      in
      let torn_limit =
        match fault with
        | Torn_write { tw_bytes } -> tw_bytes
        | _ -> max_int
      in
      let delay =
        match fault with
        | Delay { dl_every_bytes; dl_ms } -> Some (dl_every_bytes, dl_ms)
        | _ -> None
      in
      let down =
        Thread.create
          (fun () -> pump ~torn_limit:max_int ~delay:None ~budget up client)
          ()
      in
      pump ~torn_limit ~delay ~budget client up;
      if torn_limit <> max_int then begin
        (* a torn write dies outright: no reply ever reaches the client *)
        (try Unix.shutdown up Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.shutdown client Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
      end;
      Thread.join down;
      close_quietly up;
      close_quietly client)

let accept_loop t =
  (* Poll with a timeout so {!stop} is noticed without one last client
     having to connect (a plain [accept] would block through a close). *)
  let rec loop () =
    if Atomic.get t.ch_stop then ()
    else
      match Unix.select [ t.ch_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match Unix.accept t.ch_fd with
        | client, _ ->
          let i = t.ch_next in
          t.ch_next <- t.ch_next + 1;
          let fault = plan ~seed:t.ch_seed i in
          (match t.ch_log with Some f -> f i fault | None -> ());
          ignore
            (Thread.create (fun () -> handle t client fault) () : Thread.t);
          loop ()
        | exception
            Unix.Unix_error
              (( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
               | Unix.ECONNABORTED ), _, _) ->
          loop ()
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
  in
  loop ()

let start ?log ~listen ~upstream ~seed () =
  let fd, port = Server.listen_on listen in
  let t =
    {
      ch_fd = fd;
      ch_port = port;
      ch_listen_path =
        (match listen with Server.Unix_path p -> Some p | Server.Tcp _ -> None);
      ch_upstream = upstream;
      ch_seed = seed;
      ch_log = log;
      ch_stop = Atomic.make false;
      ch_next = 0;
      ch_acceptor = None;
    }
  in
  t.ch_acceptor <- Some (Thread.create accept_loop t);
  t

let stop t =
  Atomic.set t.ch_stop true;
  (match t.ch_acceptor with
  | Some acceptor ->
    Thread.join acceptor;
    t.ch_acceptor <- None
  | None -> ());
  close_quietly t.ch_fd;
  match t.ch_listen_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ()
