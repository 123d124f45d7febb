(** Tests for the [mrefine serve] subsystem: the JSON wire protocol
    (framing, escapes, request codec), a live socket server (malformed
    requests, concurrent submits with interleaved polls, mid-job
    cancellation), the scheduler's journal resume, and the session's
    cross-request elaboration cache. *)

let fig1_src = Spec.Printer.program_to_string Workloads.Smallspecs.fig1
let fig2_src = Spec.Printer.program_to_string Workloads.Smallspecs.fig2

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

(* --- protocol ----------------------------------------------------------- *)

let test_json_round_trip () =
  let open Serve.Protocol in
  let cases =
    [
      Null;
      Bool true;
      Bool false;
      Int 0;
      Int (-42);
      Float 1.5;
      String "";
      String "plain";
      String "quote \" backslash \\ newline \n tab \t nul \x00";
      List [];
      List [ Int 1; String "two"; Null ];
      Obj [];
      Obj
        [
          ("a", Int 1);
          ("nested", Obj [ ("xs", List [ Bool false; Float 2.25 ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "no raw newline in %s" s)
        false
        (String.contains s '\n');
      match parse s with
      | Ok v' ->
        Alcotest.(check string) "round-trip" s (to_string v')
      | Error msg -> Alcotest.failf "parse %s failed: %s" s msg)
    cases

let test_json_escapes_and_unicode () =
  let open Serve.Protocol in
  (match parse {|"aAé€"|} with
  | Ok (String s) -> Alcotest.(check string) "utf-8" "aA\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "unicode escapes");
  (match parse {|"😀"|} with
  | Ok (String s) ->
    Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair");
  match parse {|  {"k" : [ 1 , 2.5, true, null ] }  |} with
  | Ok v ->
    Alcotest.(check string) "whitespace tolerated"
      {|{"k":[1,2.5,true,null]}|} (to_string v)
  | Error msg -> Alcotest.fail msg

let test_json_rejects_malformed () =
  let open Serve.Protocol in
  List.iter
    (fun src ->
      match parse src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [
      "";
      "{";
      "[1,";
      "{\"a\":}";
      "\"unterminated";
      "tru";
      "{} trailing";
      "{\"a\":1,}";
      "nul";
      "1e";
      (* a \\u escape takes exactly four hex digits *)
      "\"\\u0_41\"";
      "\"\\u00_4\"";
      "\"\\u+041\"";
      "\"\\u 041\"";
      "\"\\u00\"";
      (* RFC 8259 numbers: no leading zeros, a digit after a dot *)
      "01";
      "-01";
      "[00]";
      "1.";
      "1.e5";
      "-";
      "1e+";
    ]

let test_request_codec () =
  let open Serve.Protocol in
  let reqs =
    [
      Submit { sb_id = Some "j1"; sb_job = Obj [ ("kind", String "refine") ] };
      Submit { sb_id = None; sb_job = Obj [] };
      Status "j2";
      Result { rs_id = "j3"; rs_wait = true };
      Cancel "j4";
      Stats;
      Ping;
      Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match request_of_json (request_to_json req) with
      | Ok req' ->
        Alcotest.(check string) "request round-trip"
          (to_string (request_to_json req))
          (to_string (request_to_json req'))
      | Error msg -> Alcotest.fail msg)
    reqs;
  (match request_of_json (Obj [ ("op", String "warp") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op accepted");
  match request_of_json (Obj [ ("op", String "status") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "status without id accepted"

let test_states () =
  let open Serve.Protocol in
  List.iter
    (fun s ->
      match state_of_name (state_name s) with
      | Some s' -> Alcotest.(check bool) "state round-trip" true (s = s')
      | None -> Alcotest.fail (state_name s))
    [ Pending; Running; Done; Failed; Cancelled ];
  Alcotest.(check bool) "pending not terminal" false (terminal Pending);
  Alcotest.(check bool) "done terminal" true (terminal Done)

(* --- codec against the per-byte reference ------------------------------- *)

(* The codec as it was before strings moved in runs: one escape per
   byte, through a temporary buffer per string.  Every rendering must
   stay byte-equal to it. *)
let oracle_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec oracle_to_string (j : Serve.Protocol.json) =
  let open Serve.Protocol in
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f when not (Float.is_finite f) -> "null"
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f
  | Fixed s -> s
  | String s -> "\"" ^ oracle_escape s ^ "\""
  | List xs -> "[" ^ String.concat "," (List.map oracle_to_string xs) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> "\"" ^ oracle_escape k ^ "\":" ^ oracle_to_string v)
           fields)
    ^ "}"

(* Byte strings biased towards what the escaper treats specially: quotes,
   backslashes and control bytes, often adjacent or at either end, among
   plain runs and multi-byte UTF-8. *)
let wire_bytes_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [ (3, map (String.make 1) (oneofl [ '"'; '\\' ]));
        (3, map (fun n -> String.make 1 (Char.chr n)) (0 -- 31));
        (3, map (String.make 1) (char_range ' ' '~'));
        (2, string_size ~gen:(char_range 'a' 'z') (1 -- 24));
        ( 2,
          oneofl
            [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\x7f"; "/";
              "\\u0041" ] );
        (1, map (String.make 1) char) ]
  in
  map (String.concat "") (list_size (0 -- 24) piece)

let prop_encoder_matches_oracle =
  QCheck.Test.make ~count:2000 ~name:"strings and keys encode as the oracle"
    (QCheck.make ~print:String.escaped wire_bytes_gen)
    (fun s ->
      let open Serve.Protocol in
      let docs =
        [ String s; Obj [ (s, String s) ]; List [ String s; Obj [ (s, Int 1) ] ] ]
      in
      List.for_all
        (fun j ->
          let text = to_string j in
          text = oracle_to_string j && parse text = Ok j)
        docs)

(* The decoder reads every form a peer may send: short escapes, [\\u]
   escapes in either case and [\\/], not only what the encoder writes. *)
let prop_decoder_reads_every_escape =
  let gen =
    let open QCheck.Gen in
    let* s = wire_bytes_gen in
    let* picks = list_repeat (String.length s) (0 -- 2) in
    return (s, picks)
  in
  let encode (s, picks) =
    let buf = Buffer.create 64 in
    List.iteri
      (fun i pick ->
        let c = s.[i] in
        let u hex = Printf.bprintf buf hex (Char.code c) in
        let needs = c = '"' || c = '\\' || Char.code c < 0x20 in
        match (pick, c) with
        | _ when Char.code c >= 0x80 -> Buffer.add_char buf c
        | 0, _ when not needs -> Buffer.add_char buf c
        | 0, _ -> Buffer.add_string buf (oracle_escape (String.make 1 c))
        | 1, '/' -> Buffer.add_string buf "\\/"
        | 1, _ -> u "\\u%04x"
        | _ -> u "\\u%04X")
      picks;
    "\"" ^ Buffer.contents buf ^ "\""
  in
  QCheck.Test.make ~count:2000 ~name:"every escape form decodes"
    (QCheck.make ~print:(fun x -> String.escaped (encode x)) gen)
    (fun ((s, _) as x) -> Serve.Protocol.parse (encode x) = Ok (Serve.Protocol.String s))

(* A string frame as large as the daemon's default frame cap parses at
   a small multiple of its size, with and without escapes in it. *)
let test_json_big_string () =
  let size = Serve.Server.default_config.cfg_max_frame_bytes in
  List.iter
    (fun (label, s) ->
      let frame = Serve.Protocol.to_string (Serve.Protocol.String s) in
      match
        Helpers.check_allocation ~label ~size:(String.length frame) (fun () ->
            Serve.Protocol.parse frame)
      with
      | Ok (Serve.Protocol.String s') ->
        Alcotest.(check bool) (label ^ " round-trips") true (s = s')
      | Ok _ | Error _ -> Alcotest.failf "%s: not parsed back" label)
    [ ("plain 4 MiB string", String.init size (fun i -> Char.chr (97 + (i mod 26))));
      ( "4 MiB string with escapes",
        String.init size (fun i -> if i mod 64 = 63 then '\n' else 'x') ) ]

(* --- live server helpers ------------------------------------------------ *)

let fresh_socket_path () =
  let path = Filename.temp_file "coref_serve" ".sock" in
  Sys.remove path;
  path

(* Several tests write into sockets the server may close under them. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let with_server_full ?config ?listen ?journal ?(jobs = 1) f =
  let session = Serve.Session.create () in
  let scheduler = Serve.Scheduler.create ?journal ~jobs session in
  let socket = fresh_socket_path () in
  let server = Serve.Server.start ?config ?listen ~socket scheduler in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.run server)
    (fun () -> f server socket)

let with_server ?journal ?(jobs = 1) f =
  with_server_full ?journal ~jobs (fun _server socket -> f socket)

let connect_fd endpoint =
  match Serve.Server.connect_endpoint endpoint with
  | Ok fd -> fd
  | Error msg -> Alcotest.fail msg

let connect_endpoint endpoint =
  let fd = connect_fd endpoint in
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd)

let tcp port = Serve.Server.Tcp { host = "127.0.0.1"; port }
let connect socket = connect_endpoint (Serve.Server.Unix_path socket)
let connect_tcp port = connect_endpoint (tcp port)

let send (_, oc, _) line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv (ic, _, _) = input_line ic

let close_conn (_, _, fd) = try Unix.close fd with Unix.Unix_error _ -> ()

let roundtrip conn line =
  send conn line;
  recv conn

let reply_exn line =
  match Serve.Protocol.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unreadable reply %s: %s" line msg

let reply_ok line =
  let v = reply_exn line in
  match Serve.Protocol.member "ok" v with
  | Some (Serve.Protocol.Bool b) -> (b, v)
  | _ -> Alcotest.failf "reply without ok: %s" line

let reply_string key v =
  match Serve.Protocol.member key v with
  | Some (Serve.Protocol.String s) -> s
  | _ -> Alcotest.failf "reply without %S: %s" key (Serve.Protocol.to_string v)

let submit_line ?id job_fields =
  Serve.Protocol.to_string
    (Serve.Protocol.request_to_json
       (Serve.Protocol.Submit
          { sb_id = id; sb_job = Serve.Protocol.Obj job_fields }))

let refine_job ?(src = fig1_src) () =
  [ ("kind", Serve.Protocol.String "refine");
    ("spec", Serve.Protocol.String src) ]

let await_result conn id =
  let line =
    roundtrip conn
      (Serve.Protocol.to_string
         (Serve.Protocol.request_to_json
            (Serve.Protocol.Result { rs_id = id; rs_wait = true })))
  in
  let ok, v = reply_ok line in
  Alcotest.(check bool) ("result ok for " ^ id) true ok;
  v

(* --- live server tests -------------------------------------------------- *)

let test_malformed_requests_survive_connection () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      List.iter
        (fun bad ->
          let ok, v = reply_ok (roundtrip conn bad) in
          Alcotest.(check bool) ("rejected: " ^ bad) false ok;
          ignore (reply_string "error" v))
        [
          "this is not json";
          "{\"op\":";
          "{\"op\":\"warp\"}";
          "{\"op\":\"status\"}";
          "{\"op\":\"submit\"}";
          "42";
        ];
      (* The same connection must still serve well-formed requests. *)
      let ok, v = reply_ok (roundtrip conn "{\"op\":\"ping\"}") in
      Alcotest.(check bool) "ping after garbage" true ok;
      match Serve.Protocol.member "pong" v with
      | Some (Serve.Protocol.Bool true) -> ()
      | _ -> Alcotest.fail "no pong")

let test_submit_runs_job () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let ok, v = reply_ok (roundtrip conn (submit_line (refine_job ()))) in
      Alcotest.(check bool) "submitted" true ok;
      let id = reply_string "id" v in
      let result = await_result conn id in
      Alcotest.(check string) "done" "done" (reply_string "state" result);
      let output = reply_string "output" result in
      (* The served report must be byte-identical to the direct library
         path the CLI prints. *)
      let g = Agraph.Access_graph.of_program Workloads.Smallspecs.fig1 in
      let part = Partitioning.Greedy.run g ~n_parts:2 in
      let r =
        Core.Refiner.refine Workloads.Smallspecs.fig1 g part
          Core.Model.Model2
      in
      Alcotest.(check string) "byte-identical refine"
        (Spec.Printer.program_to_string r.Core.Refiner.rf_program)
        output)

(* A served litmus job must print exactly what the CLI prints for the
   same matrix — deterministic suite, same to_json, byte-identical.  A
   job ignores fields it does not read, so a client still sending the
   retired "backend" field gets the same report. *)
let test_litmus_job_replays_cli () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let job =
        [
          ("kind", Serve.Protocol.String "litmus");
          ( "shapes",
            Serve.Protocol.List
              [ Serve.Protocol.String "sb"; Serve.Protocol.String "mp" ] );
          ( "orderings",
            Serve.Protocol.List
              [ Serve.Protocol.String "sc"; Serve.Protocol.String "relaxed" ]
          );
          ("seeds", Serve.Protocol.Int 2);
          ("json", Serve.Protocol.Bool true);
          ("backend", Serve.Protocol.String "tree");
        ]
      in
      let ok, v = reply_ok (roundtrip conn (submit_line job)) in
      Alcotest.(check bool) "submitted" true ok;
      let id = reply_string "id" v in
      let result = await_result conn id in
      Alcotest.(check string) "done" "done" (reply_string "state" result);
      let output = reply_string "output" result in
      let direct =
        Litmus.Suite.to_json
          (Litmus.Suite.run
             {
               Litmus.Suite.cf_shapes =
                 [
                   Litmus.Shape.store_buffering ();
                   Litmus.Shape.message_passing ();
                 ];
               cf_orderings =
                 [
                   Sim.Memord.Sc;
                   Sim.Memord.Relaxed Sim.Memord.default_window;
                 ];
               cf_seeds = 2;
               cf_faults = false;
             })
      in
      Alcotest.(check string) "byte-identical litmus report" direct output)

let test_unknown_job_kind_fails () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let _, v =
        reply_ok
          (roundtrip conn
             (submit_line
                [ ("kind", Serve.Protocol.String "transmogrify");
                  ("spec", Serve.Protocol.String fig1_src) ]))
      in
      let id = reply_string "id" v in
      let result = await_result conn id in
      Alcotest.(check string) "failed" "failed" (reply_string "state" result);
      let err = reply_string "error" result in
      Alcotest.(check bool) "mentions kind" true
        (contains_sub ~sub:"transmogrify" err))

let test_concurrent_submits_with_status_polls () =
  with_server (fun socket ->
      let n = 8 in
      let outputs = Array.make n "" in
      let workers =
        List.init n (fun i ->
            Thread.create
              (fun i ->
                let conn = connect socket in
                Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
                let src = if i mod 2 = 0 then fig1_src else fig2_src in
                let _, v =
                  reply_ok (roundtrip conn (submit_line (refine_job ~src ())))
                in
                let id = reply_string "id" v in
                (* Interleave status polls with the others' submits. *)
                for _ = 1 to 3 do
                  let ok, sv =
                    reply_ok
                      (roundtrip conn
                         (Printf.sprintf "{\"op\":\"status\",\"id\":%S}" id))
                  in
                  Alcotest.(check bool) "status ok" true ok;
                  let state = reply_string "state" sv in
                  Alcotest.(check bool)
                    ("known state " ^ state)
                    true
                    (Serve.Protocol.state_of_name state <> None)
                done;
                let result = await_result conn id in
                Alcotest.(check string) "done" "done"
                  (reply_string "state" result);
                outputs.(i) <- reply_string "output" result)
              i)
      in
      List.iter Thread.join workers;
      (* Identical sources produce identical served outputs. *)
      for i = 2 to n - 1 do
        Alcotest.(check string)
          (Printf.sprintf "deterministic %d" i)
          outputs.(i mod 2) outputs.(i)
      done)

let test_cancel_mid_job () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      (* A sweep big enough to still be running when the cancel lands. *)
      let job =
        [
          ("kind", Serve.Protocol.String "explore");
          ("spec", Serve.Protocol.String fig2_src);
          ("steps", Serve.Protocol.Int 300_000);
          ( "seeds",
            Serve.Protocol.List
              [ Serve.Protocol.Int 1; Serve.Protocol.Int 2;
                Serve.Protocol.Int 3 ] );
        ]
      in
      let _, v = reply_ok (roundtrip conn (submit_line job)) in
      let id = reply_string "id" v in
      let ok, _ =
        reply_ok
          (roundtrip conn (Printf.sprintf "{\"op\":\"cancel\",\"id\":%S}" id))
      in
      Alcotest.(check bool) "cancel accepted" true ok;
      let result = await_result conn id in
      Alcotest.(check string) "cancelled" "cancelled"
        (reply_string "state" result);
      Alcotest.(check string) "cancel message" "cancelled"
        (reply_string "error" result))

let test_idempotent_submit () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let line = submit_line ~id:"stable" (refine_job ()) in
      let _, v1 = reply_ok (roundtrip conn line) in
      Alcotest.(check string) "first id" "stable" (reply_string "id" v1);
      ignore (await_result conn "stable");
      (* Resubmitting the same id returns the finished job, it does not
         enqueue a second run. *)
      let _, v2 = reply_ok (roundtrip conn line) in
      Alcotest.(check string) "same id" "stable" (reply_string "id" v2);
      Alcotest.(check string) "already done" "done" (reply_string "state" v2))

(* --- robustness: framing, auth, timeouts, disconnects ------------------- *)

let nested_int outer key v =
  match Serve.Protocol.member outer v with
  | Some inner -> (
    match Serve.Protocol.member key inner with
    | Some (Serve.Protocol.Int n) -> n
    | _ ->
      Alcotest.failf "stats without %s.%s: %s" outer key
        (Serve.Protocol.to_string v))
  | None ->
    Alcotest.failf "stats without %S: %s" outer (Serve.Protocol.to_string v)

let test_oversized_frame_rejected () =
  let config =
    { Serve.Server.default_config with cfg_max_frame_bytes = 1024 }
  in
  with_server_full ~config (fun _server socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      (* One burst over the cap: one error reply, connection survives. *)
      let ok, v = reply_ok (roundtrip conn (String.make 2000 'x')) in
      Alcotest.(check bool) "oversized rejected" false ok;
      Alcotest.(check bool) "names the limit" true
        (contains_sub ~sub:"1024" (reply_string "error" v));
      let ok, _ = reply_ok (roundtrip conn "{\"op\":\"ping\"}") in
      Alcotest.(check bool) "ping after oversized burst" true ok;
      (* An unterminated frame trickled past the cap: the error comes
         before any newline, and the eventual tail is swallowed. *)
      let _, oc, _ = conn in
      output_string oc (String.make 600 'y');
      flush oc;
      output_string oc (String.make 600 'y');
      flush oc;
      let ok, _ = reply_ok (recv conn) in
      Alcotest.(check bool) "unterminated frame rejected" false ok;
      send conn (String.make 100 'y');
      let ok, _ = reply_ok (roundtrip conn "{\"op\":\"ping\"}") in
      Alcotest.(check bool) "ping after discarded tail" true ok;
      (* The reject is visible in the stats counters. *)
      let _, v = reply_ok (roundtrip conn "{\"op\":\"stats\"}") in
      Alcotest.(check bool) "oversized counter" true
        (nested_int "server" "oversized_frames" v >= 2))

(* Frames written straight to the socket, not through a channel, so the
   test decides where the server's reads can end. *)
let write_raw (_, _, fd) s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let status_frame id = Printf.sprintf "{\"op\":\"status\",\"id\":%S}\n" id

(* The reply to [status_frame id]: proof that frame, and only it, was
   answered next. *)
let expect_status_reply conn id =
  let ok, v = reply_ok (recv conn) in
  Alcotest.(check bool) (id ^ " answered") false ok;
  Alcotest.(check string) (id ^ " reply") (Printf.sprintf "unknown job %S" id)
    (reply_string "error" v)

let expect_pong conn =
  let ok, v = reply_ok (roundtrip conn "{\"op\":\"ping\"}") in
  Alcotest.(check bool) "ping answered" true ok;
  Alcotest.(check bool) "and nothing else before it" true
    (Serve.Protocol.member "pong" v = Some (Serve.Protocol.Bool true))

let test_frame_split_everywhere () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let len = String.length (status_frame "s000") in
      for cut = 1 to len - 1 do
        let id = Printf.sprintf "s%03d" cut in
        let frame = status_frame id in
        write_raw conn (String.sub frame 0 cut);
        (* give the server a chance to read the head on its own *)
        Thread.delay 0.002;
        write_raw conn (String.sub frame cut (len - cut));
        expect_status_reply conn id
      done;
      expect_pong conn)

(* Many frames in one write, enough of them that some straddle the
   server's 8 KiB read chunks: one reply each, in order. *)
let test_frames_in_one_write () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let ids n = List.init n (Printf.sprintf "m%d") in
      List.iter
        (fun n ->
          let burst = String.concat "" (List.map status_frame (ids n)) in
          write_raw conn burst;
          List.iter (expect_status_reply conn) (ids n))
        [ 2; 10; 1000 ];
      Alcotest.(check bool) "a burst past one read chunk" true
        (String.length (String.concat "" (List.map status_frame (ids 1000)))
        > 3 * 8192);
      expect_pong conn)

(* A request and a reply each larger than one read chunk: the served
   reply is byte-for-byte the per-byte reference rendering of what the
   job computes in-process. *)
let test_large_frames_byte_identical () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let src = Spec.Printer.program_to_string Workloads.Medical.spec in
      (* a job ignores fields it does not read: the note pads the frame *)
      let job =
        Serve.Protocol.Obj
          [ ("kind", Serve.Protocol.String "refine");
            ("spec", Serve.Protocol.String src);
            ("note", Serve.Protocol.String (String.make 9000 'n')) ]
      in
      let request =
        Serve.Protocol.to_string
          (Serve.Protocol.request_to_json
             (Serve.Protocol.Submit { sb_id = Some "big"; sb_job = job }))
      in
      Alcotest.(check bool) "request past one read chunk" true
        (String.length request > 8192);
      let ok, _ = reply_ok (roundtrip conn request) in
      Alcotest.(check bool) "submitted" true ok;
      let served =
        roundtrip conn
          (Serve.Protocol.to_string
             (Serve.Protocol.request_to_json
                (Serve.Protocol.Result { rs_id = "big"; rs_wait = true })))
      in
      let o =
        match
          Serve.Jobs.run ~session:(Serve.Session.create ())
            ~poll:(fun () -> false) job
        with
        | Ok o -> o
        | Error msg -> Alcotest.failf "in-process refine failed: %s" msg
      in
      let expected =
        oracle_to_string
          (Serve.Protocol.ok
             (Serve.Scheduler.view_fields
                {
                  Serve.Scheduler.v_id = "big";
                  v_state = Serve.Protocol.Done;
                  v_output = Some o.Serve.Jobs.o_output;
                  v_error = None;
                  v_meta = o.Serve.Jobs.o_meta;
                  v_replayed = false;
                }))
      in
      Alcotest.(check bool) "reply past one read chunk" true
        (String.length expected > 8192);
      Alcotest.(check bool) "reply byte-identical" true (served = expected))

let auth_line token =
  Serve.Protocol.to_string
    (Serve.Protocol.request_to_json (Serve.Protocol.Auth token))

let test_tcp_token_auth () =
  let config =
    { Serve.Server.default_config with cfg_token = Some "sekrit" }
  in
  let listen = Serve.Server.Tcp { host = "127.0.0.1"; port = 0 } in
  with_server_full ~config ~listen (fun server socket ->
      let port =
        match Serve.Server.tcp_port server with
        | Some p -> p
        | None -> Alcotest.fail "no TCP port bound"
      in
      (* Unauthenticated request: one error reply, then the close. *)
      (let conn = connect_tcp port in
       Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
       let ok, v = reply_ok (roundtrip conn "{\"op\":\"ping\"}") in
       Alcotest.(check bool) "unauthenticated refused" false ok;
       Alcotest.(check bool) "names auth" true
         (contains_sub ~sub:"auth" (reply_string "error" v));
       match recv conn with
       | exception End_of_file -> ()
       | line -> Alcotest.failf "connection survived auth failure: %s" line);
      (* Wrong token: same containment. *)
      (let conn = connect_tcp port in
       Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
       let ok, _ = reply_ok (roundtrip conn (auth_line "wrong")) in
       Alcotest.(check bool) "wrong token refused" false ok;
       match recv conn with
       | exception End_of_file -> ()
       | line -> Alcotest.failf "connection survived bad token: %s" line);
      (* Right token: the connection serves jobs like any other. *)
      (let conn = connect_tcp port in
       Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
       let ok, _ = reply_ok (roundtrip conn (auth_line "sekrit")) in
       Alcotest.(check bool) "token accepted" true ok;
       let ok, v = reply_ok (roundtrip conn (submit_line (refine_job ()))) in
       Alcotest.(check bool) "submit over TCP" true ok;
       let result = await_result conn (reply_string "id" v) in
       Alcotest.(check string) "done over TCP" "done"
         (reply_string "state" result));
      (* The Unix socket stays trusted: no token needed there, and the
         failed attempts show up in the server counters. *)
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let ok, v = reply_ok (roundtrip conn "{\"op\":\"stats\"}") in
      Alcotest.(check bool) "unix socket needs no auth" true ok;
      Alcotest.(check bool) "auth failures counted" true
        (nested_int "server" "auth_failures" v >= 2);
      Alcotest.(check bool) "accept_errors exposed" true
        (nested_int "server" "accept_errors" v >= 0))

(* A frame of '[' as large as the default frame cap is refused at the
   JSON depth bound, whether or not the peer has authenticated, and the
   daemon keeps serving. *)
let test_deep_frame_rejected () =
  let config =
    { Serve.Server.default_config with cfg_token = Some "sekrit" }
  in
  let frame = String.make config.cfg_max_frame_bytes '[' in
  let listen = Serve.Server.Tcp { host = "127.0.0.1"; port = 0 } in
  with_server_full ~config ~listen (fun server _socket ->
      let port = Option.get (Serve.Server.tcp_port server) in
      (let conn = connect_tcp port in
       Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
       let ok, v = reply_ok (roundtrip conn frame) in
       Alcotest.(check bool) "unauthenticated deep frame refused" false ok;
       Alcotest.(check bool) "names auth" true
         (contains_sub ~sub:"auth" (reply_string "error" v)));
      let conn = connect_tcp port in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let ok, _ = reply_ok (roundtrip conn (auth_line "sekrit")) in
      Alcotest.(check bool) "token accepted" true ok;
      let ok, v = reply_ok (roundtrip conn frame) in
      Alcotest.(check bool) "authenticated deep frame refused" false ok;
      Alcotest.(check bool) "bad request names the bound" true
        (contains_sub ~sub:"bad request: nesting deeper than"
           (reply_string "error" v));
      let ok, _ = reply_ok (roundtrip conn "{\"op\":\"ping\"}") in
      Alcotest.(check bool) "ping after deep frame" true ok)

let test_mid_job_disconnect () =
  with_server (fun socket ->
      (* Submit, then vanish before the result: the job must finish and
         stay fetchable from a fresh connection. *)
      (let conn = connect socket in
       let ok, _ =
         reply_ok (roundtrip conn (submit_line ~id:"orphan" (refine_job ())))
       in
       Alcotest.(check bool) "submitted" true ok;
       close_conn conn);
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let result = await_result conn "orphan" in
      Alcotest.(check string) "orphan finished" "done"
        (reply_string "state" result);
      let g = Agraph.Access_graph.of_program Workloads.Smallspecs.fig1 in
      let part = Partitioning.Greedy.run g ~n_parts:2 in
      let r =
        Core.Refiner.refine Workloads.Smallspecs.fig1 g part Core.Model.Model2
      in
      Alcotest.(check string) "orphan output intact"
        (Spec.Printer.program_to_string r.Core.Refiner.rf_program)
        (reply_string "output" result))

let test_idle_timeout_reaps_connection () =
  let config =
    {
      Serve.Server.default_config with
      cfg_idle_timeout_s = Some 0.2;
      cfg_write_timeout_s = None;
    }
  in
  with_server_full ~config (fun _server socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let ok, _ = reply_ok (roundtrip conn "{\"op\":\"ping\"}") in
      Alcotest.(check bool) "ping before idling" true ok;
      (* Sit silent past the idle timeout: the server hangs up. *)
      (match recv conn with
      | exception End_of_file -> ()
      | line -> Alcotest.failf "idle connection survived: %s" line);
      let conn2 = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn2) @@ fun () ->
      let _, v = reply_ok (roundtrip conn2 "{\"op\":\"stats\"}") in
      Alcotest.(check bool) "reap counted" true
        (nested_int "server" "reaped_timeouts" v >= 1))

let test_slow_reader_write_timeout () =
  let config =
    {
      Serve.Server.default_config with
      cfg_write_timeout_s = Some 0.2;
      cfg_idle_timeout_s = None;
    }
  in
  with_server_full ~config (fun _server socket ->
      let fd = connect_fd (Serve.Server.Unix_path socket) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* Flood pings and never read a reply: the reply path fills, the
         server's writes stall past its write timeout, it reaps us.  The
         flood keeps pushing through transient fullness (its own send
         timeout outlives the server's write timeout) so it ends only
         once the server is wedged or has already hung up. *)
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
       with Unix.Unix_error _ -> ());
      let ping = Bytes.of_string "{\"op\":\"ping\"}\n" in
      let rec flood n =
        if n > 0 then
          match Unix.write fd ping 0 (Bytes.length ping) with
          | _ -> flood (n - 1)
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
            ->
            ()
      in
      flood 500_000;
      (* Still not reading: consuming replies early would unblock the
         server's writes and defeat the timeout.  Give the reap time to
         fire, then drain the buffered replies down to the EOF. *)
      Thread.delay 1.0;
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
       with Unix.Unix_error _ -> ());
      let buf = Bytes.create 65536 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | _ -> drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          Alcotest.fail "slow reader never reaped"
      in
      drain ();
      let conn2 = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn2) @@ fun () ->
      let _, v = reply_ok (roundtrip conn2 "{\"op\":\"stats\"}") in
      Alcotest.(check bool) "write-timeout reap counted" true
        (nested_int "server" "reaped_timeouts" v >= 1))

(* --- chaos proxy -------------------------------------------------------- *)

let test_chaos_plan_deterministic () =
  let schedule seed =
    List.init 200 (fun i ->
        Serve.Chaos.fault_to_string (Serve.Chaos.plan ~seed i))
  in
  Alcotest.(check (list string))
    "same seed, same schedule" (schedule 42) (schedule 42);
  Alcotest.(check bool) "different seeds diverge" true
    (schedule 42 <> schedule 43);
  (* The schedule actually mixes fault kinds, not just Pass. *)
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun s ->
           match String.index_opt s '(' with
           | Some i -> String.sub s 0 i
           | None -> s)
         (schedule 42))
  in
  Alcotest.(check bool) "several fault kinds" true (List.length kinds >= 4)

(* Under the chaos proxy, a client retrying idempotent submits must end
   with results byte-identical to a fault-free run — transport damage
   never corrupts or duplicates work.  Every request goes through a
   fresh {!Serve.Client}, so each one dials its own proxied connection
   with its own planned fault, and the client's retry policy alone must
   carry it through.  The client authenticates, so the faults hit auth
   frames too. *)
let test_chaos_proxy_converges () =
  let config =
    { Serve.Server.default_config with cfg_token = Some "chaos-token" }
  in
  with_server_full ~config (fun _server socket ->
      let proxy =
        Serve.Chaos.start ~listen:(tcp 0)
          ~upstream:(Serve.Server.Unix_path socket) ~seed:7 ()
      in
      Fun.protect ~finally:(fun () -> Serve.Chaos.stop proxy) @@ fun () ->
      let port =
        match Serve.Chaos.port proxy with
        | Some p -> p
        | None -> Alcotest.fail "chaos proxy has no port"
      in
      let request what f =
        let client =
          Serve.Client.create ~token:"chaos-token" ~timeout_s:10.0 ~retries:20
            ~backoff_ms:10 (tcp port)
        in
        Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
        match f client with
        | Error msg -> Alcotest.failf "%s failed under chaos: %s" what msg
        | Ok line ->
          let ok, v = reply_ok line in
          Alcotest.(check bool) (what ^ " ok") true ok;
          v
      in
      let ids = List.init 12 (Printf.sprintf "chaos-%d") in
      List.iter
        (fun id ->
          ignore
            (request ("submit " ^ id) (fun c ->
                 Serve.Client.submit c ~id
                   (Serve.Protocol.Obj (refine_job ())))))
        ids;
      let outputs =
        List.map
          (fun id ->
            let v =
              request ("result " ^ id) (fun c ->
                  Serve.Client.call c
                    (Serve.Protocol.Result { rs_id = id; rs_wait = true }))
            in
            Alcotest.(check string)
              (id ^ " done") "done" (reply_string "state" v);
            reply_string "output" v)
          ids
      in
      let g = Agraph.Access_graph.of_program Workloads.Smallspecs.fig1 in
      let part = Partitioning.Greedy.run g ~n_parts:2 in
      let expected =
        Spec.Printer.program_to_string
          (Core.Refiner.refine Workloads.Smallspecs.fig1 g part
             Core.Model.Model2)
            .Core.Refiner.rf_program
      in
      List.iter
        (fun out ->
          Alcotest.(check string) "byte-identical under chaos" expected out)
        outputs)

(* --- client retry policy ------------------------------------------------ *)

(* A refused token is permanent: one authentication attempt, whatever
   the retry budget. *)
let test_client_refused_token () =
  let config =
    { Serve.Server.default_config with cfg_token = Some "sekrit" }
  in
  with_server_full ~config ~listen:(tcp 0) (fun server socket ->
      let port = Option.get (Serve.Server.tcp_port server) in
      let client =
        Serve.Client.create ~token:"wrong" ~retries:5 ~backoff_ms:1 (tcp port)
      in
      (match Serve.Client.call client Serve.Protocol.Ping with
      | Error msg ->
        Alcotest.(check string) "daemon's refusal" "authentication failed" msg
      | Ok reply -> Alcotest.failf "wrong token accepted: %s" reply);
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let _, v = reply_ok (roundtrip conn "{\"op\":\"stats\"}") in
      Alcotest.(check int) "one auth attempt" 1
        (nested_int "server" "auth_failures" v))

(* An auth frame damaged on its way is a transport failure, not a
   refused token: the client re-dials and gets in.  The proxy's seed is
   the first whose first connection gets junk bytes ahead of the
   client's stream. *)
let test_client_damaged_auth () =
  let config =
    { Serve.Server.default_config with cfg_token = Some "sekrit" }
  in
  with_server_full ~config ~listen:(tcp 0) (fun server _socket ->
      let port = Option.get (Serve.Server.tcp_port server) in
      let rec garbage_first seed =
        match Serve.Chaos.plan ~seed 0 with
        | Serve.Chaos.Garbage _ -> seed
        | _ -> garbage_first (seed + 1)
      in
      let proxy =
        Serve.Chaos.start ~listen:(tcp 0) ~upstream:(tcp port)
          ~seed:(garbage_first 0) ()
      in
      Fun.protect ~finally:(fun () -> Serve.Chaos.stop proxy) @@ fun () ->
      let client =
        Serve.Client.create ~token:"sekrit" ~timeout_s:10.0 ~retries:20
          ~backoff_ms:1
          (tcp (Option.get (Serve.Chaos.port proxy)))
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      match Serve.Client.call client Serve.Protocol.Ping with
      | Ok line ->
        Alcotest.(check bool) "ping after a damaged auth" true
          (fst (reply_ok line))
      | Error msg -> Alcotest.failf "damaged auth frame was final: %s" msg)

(* A busy reply is retried after its retry_after_ms hint.  The daemon
   takes one connection; the test holds it until the client has been
   turned away once, then lets go, and the client's retry gets in. *)
let test_client_busy_retry () =
  let config =
    { Serve.Server.default_config with cfg_max_connections = 1 }
  in
  with_server_full ~config (fun _server socket ->
      let held = connect socket in
      let rejected () =
        nested_int "server" "rejected_capacity"
          (snd (reply_ok (roundtrip held "{\"op\":\"stats\"}")))
      in
      ignore (rejected ());
      let release =
        Thread.create
          (fun () ->
            while rejected () = 0 do
              Thread.delay 0.001
            done;
            close_conn held)
          ()
      in
      let client =
        Serve.Client.create ~retries:3 ~backoff_ms:1
          (Serve.Server.Unix_path socket)
      in
      let reply = Serve.Client.call client Serve.Protocol.Ping in
      Thread.join release;
      Serve.Client.close client;
      match reply with
      | Ok line ->
        let ok, v = reply_ok line in
        Alcotest.(check bool) "ping after the busy reply" true ok;
        Alcotest.(check bool) "pong" true
          (Serve.Protocol.member "pong" v = Some (Serve.Protocol.Bool true))
      | Error msg -> Alcotest.failf "busy daemon never let the client in: %s" msg
      )

(* A stand-in daemon on a Unix socket, for the failures past the send
   that a well-behaved daemon never shows: connection [i] reads one
   request line, then answers [answer i line], or hangs up without a
   reply on [None].  Returns the request lines it read, in order. *)
let with_fake_daemon answer f =
  let path = fresh_socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let stop = Atomic.make false in
  let seen = ref [] in
  let rec serve i =
    if not (Atomic.get stop) then
      match Unix.select [ lfd ] [] [] 0.02 with
      | [], _, _ -> serve i
      | _ ->
        let fd, _ = Unix.accept lfd in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (match input_line ic with
        | exception End_of_file -> ()
        | line ->
          seen := line :: !seen;
          Option.iter
            (fun reply ->
              output_string oc (reply ^ "\n");
              flush oc)
            (answer i line));
        close_in_noerr ic;
        serve (i + 1)
  in
  let server = Thread.create serve 0 in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server;
      Unix.close lfd;
      Sys.remove path)
    (fun () -> f (Serve.Server.Unix_path path));
  List.rev !seen

(* A request that must not run twice is sent once, even with retries to
   spare, when the daemon hangs up after reading it; an idempotent one
   is re-sent on a new connection. *)
let test_client_no_resend () =
  let hang_up _ _ = None in
  let ping = "{\"op\":\"ping\"}" in
  let seen =
    with_fake_daemon hang_up (fun endpoint ->
        let client = Serve.Client.create ~timeout_s:5.0 ~retries:3 ~backoff_ms:1 endpoint
        in
        match Serve.Client.rpc ~resend:false client ping with
        | Error msg ->
          Alcotest.(check string) "error" "daemon closed the connection" msg
        | Ok reply -> Alcotest.failf "reply from a silent daemon: %s" reply)
  in
  Alcotest.(check (list string)) "sent once" [ ping ] seen;
  let seen =
    with_fake_daemon hang_up (fun endpoint ->
        let client = Serve.Client.create ~timeout_s:5.0 ~retries:3 ~backoff_ms:1 endpoint
        in
        ignore (Serve.Client.rpc client ping))
  in
  Alcotest.(check int) "idempotent: first try plus three retries" 4
    (List.length seen)

(* Without an id, a submit with retries to spare picks one, and every
   resend carries that same id, so the job runs once. *)
let test_client_submit_stable_id () =
  let submitted_id line =
    match Serve.Protocol.request_of_json (reply_exn line) with
    | Ok (Serve.Protocol.Submit { sb_id; _ }) -> sb_id
    | _ -> Alcotest.failf "not a submit: %s" line
  in
  (* The first connection hangs up after the submit, the second one
     accepts it. *)
  let accepted = Serve.Protocol.to_string (Serve.Protocol.ok []) in
  let answer i _ = if i = 0 then None else Some accepted in
  let job = Serve.Protocol.Obj (refine_job ()) in
  let seen =
    with_fake_daemon answer (fun endpoint ->
        let client = Serve.Client.create ~timeout_s:5.0 ~retries:2 ~backoff_ms:1 endpoint
        in
        match Serve.Client.submit client job with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "submit failed: %s" msg)
  in
  (match List.map submitted_id seen with
  | [ Some first; Some second ] ->
    Alcotest.(check string) "one id across the resend" first second;
    Alcotest.(check bool) "a generated id" true
      (String.starts_with ~prefix:"c-" first)
  | _ -> Alcotest.failf "want two submits with ids, got %d" (List.length seen));
  (* With no retries there is no resend to keep stable: no id. *)
  let seen =
    with_fake_daemon answer (fun endpoint ->
        let client = Serve.Client.create ~timeout_s:5.0 ~retries:0 ~backoff_ms:1 endpoint
        in
        ignore (Serve.Client.submit client job))
  in
  Alcotest.(check (list (option string))) "no id without retries" [ None ]
    (List.map submitted_id seen)

(* Every dial failure names the endpoint exactly once: a refused
   connect, and a daemon that hangs up on the auth frame or answers it
   with junk. *)
let test_client_dial_errors () =
  let failure ?token endpoint =
    let client =
      Serve.Client.create ?token ~timeout_s:5.0 ~retries:0 ~backoff_ms:1
        endpoint
    in
    match Serve.Client.call client Serve.Protocol.Ping with
    | Error msg -> msg
    | Ok reply -> Alcotest.failf "reply from a failed dial: %s" reply
  in
  let names_once label endpoint why msg =
    let ep = Serve.Server.endpoint_to_string endpoint in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names %s once" label msg ep)
      true
      (String.starts_with
         ~prefix:(Printf.sprintf "cannot connect to %s: %s" ep why)
         msg)
  in
  let missing = Serve.Server.Unix_path (fresh_socket_path ()) in
  names_once "no daemon" missing "No such file or directory" (failure missing);
  List.iter
    (fun (label, answer, why) ->
      ignore
        (with_fake_daemon answer (fun endpoint ->
             names_once label endpoint why (failure ~token:"t" endpoint))))
    [
      ("hang-up during auth", (fun _ _ -> None),
       "connection closed during authentication");
      ("junk auth reply", (fun _ _ -> Some "junk"),
       "unreadable authentication reply: ");
    ]

(* --- scheduler journal resume ------------------------------------------- *)

let fresh_journal_path () =
  let path = Filename.temp_file "coref_serve" ".journal" in
  Sys.remove path;
  path

let test_restart_replays_done_and_resumes_inflight () =
  let path = fresh_journal_path () in
  let meta = Serve.Scheduler.journal_meta in
  (* First daemon lifetime: finish one job, record another as submitted
     but never finished (the in-flight shape a SIGKILL leaves behind). *)
  let output =
    let journal = Checkpoint.Journal.open_ ~path ~meta in
    let session = Serve.Session.create () in
    let scheduler = Serve.Scheduler.create ~journal session in
    let job =
      Serve.Protocol.Obj
        [ ("kind", Serve.Protocol.String "refine");
          ("spec", Serve.Protocol.String fig1_src) ]
    in
    (match Serve.Scheduler.submit scheduler ~id:"finished" job with
    | Ok _ -> ()
    | Error r -> Alcotest.fail r.Serve.Scheduler.rj_reason);
    let view =
      match Serve.Scheduler.result scheduler ~wait:true "finished" with
      | Some v -> v
      | None -> Alcotest.fail "job vanished"
    in
    Serve.Scheduler.shutdown scheduler;
    (* Simulate dying mid-flight: the submit record exists, no outcome. *)
    Checkpoint.Journal.append journal ~key:"spec/inflight"
      (Serve.Protocol.to_string job);
    Checkpoint.Journal.close journal;
    match (view.Serve.Scheduler.v_state, view.Serve.Scheduler.v_output) with
    | Serve.Protocol.Done, Some out -> out
    | state, _ ->
      Alcotest.failf "first run state %s" (Serve.Protocol.state_name state)
  in
  (* Second daemon lifetime over the same journal. *)
  let journal = Checkpoint.Journal.open_ ~path ~meta in
  let session = Serve.Session.create () in
  let scheduler = Serve.Scheduler.create ~journal session in
  (match Serve.Scheduler.status scheduler "finished" with
  | Some v ->
    Alcotest.(check bool) "replayed flag" true v.Serve.Scheduler.v_replayed;
    Alcotest.(check string) "replayed state" "done"
      (Serve.Protocol.state_name v.Serve.Scheduler.v_state);
    Alcotest.(check (option string)) "replayed output" (Some output)
      v.Serve.Scheduler.v_output
  | None -> Alcotest.fail "finished job lost across restart");
  (match Serve.Scheduler.result scheduler ~wait:true "inflight" with
  | Some v ->
    Alcotest.(check string) "in-flight job re-ran" "done"
      (Serve.Protocol.state_name v.Serve.Scheduler.v_state);
    Alcotest.(check (option string)) "identical output" (Some output)
      v.Serve.Scheduler.v_output
  | None -> Alcotest.fail "in-flight job not re-enqueued");
  Serve.Scheduler.shutdown scheduler;
  Checkpoint.Journal.close journal

let test_cancelled_pending_survives_restart () =
  let path = fresh_journal_path () in
  let meta = Serve.Scheduler.journal_meta in
  let journal = Checkpoint.Journal.open_ ~path ~meta in
  Checkpoint.Journal.append journal ~key:"spec/doomed"
    (Serve.Protocol.to_string
       (Serve.Protocol.Obj
          [ ("kind", Serve.Protocol.String "refine");
            ("spec", Serve.Protocol.String fig1_src) ]));
  Checkpoint.Journal.append journal ~key:"cancel/doomed" "";
  Checkpoint.Journal.close journal;
  let journal = Checkpoint.Journal.open_ ~path ~meta in
  let session = Serve.Session.create () in
  let scheduler = Serve.Scheduler.create ~journal session in
  (match Serve.Scheduler.status scheduler "doomed" with
  | Some v ->
    Alcotest.(check string) "cancelled on replay" "cancelled"
      (Serve.Protocol.state_name v.Serve.Scheduler.v_state)
  | None -> Alcotest.fail "cancelled job lost");
  Serve.Scheduler.shutdown scheduler;
  Checkpoint.Journal.close journal

(* fixtures/serve_parent.journal was written by `mrefine serve --journal`
   built from the tree before journals and caches shared one record codec:
   refine, lint and faults jobs that finished, failed or were cancelled.
   Replayed here, every job keeps the state, output and error its records
   hold, and each finished job's output is what this build computes for
   the same job. *)
let test_older_journal_replays () =
  let path = fresh_journal_path () in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (In_channel.with_open_bin "fixtures/serve_parent.journal"
           In_channel.input_all));
  let journal =
    Checkpoint.Journal.open_ ~path ~meta:Serve.Scheduler.journal_meta
  in
  let recorded = Checkpoint.Journal.entries journal in
  let record kind id = List.assoc (kind ^ "/" ^ id) recorded in
  let string_member name outcome =
    match Serve.Protocol.member name outcome with
    | Some (Serve.Protocol.String s) -> Some s
    | _ -> None
  in
  let scheduler = Serve.Scheduler.create ~journal (Serve.Session.create ()) in
  List.iter
    (fun (id, state) ->
      let v =
        match Serve.Scheduler.status scheduler id with
        | Some v -> v
        | None -> Alcotest.failf "job %s lost on replay" id
      in
      Alcotest.(check string) (id ^ " state") state
        (Serve.Protocol.state_name v.Serve.Scheduler.v_state);
      let outcome = Result.get_ok (Serve.Protocol.parse (record "done" id)) in
      Alcotest.(check (option string)) (id ^ " output")
        (string_member "output" outcome) v.Serve.Scheduler.v_output;
      Alcotest.(check (option string)) (id ^ " error")
        (string_member "error" outcome) v.Serve.Scheduler.v_error;
      if state = "done" then
        let job = Result.get_ok (Serve.Protocol.parse (record "spec" id)) in
        match
          Serve.Jobs.run ~session:(Serve.Session.create ())
            ~poll:(fun () -> false) job
        with
        | Ok o ->
          Alcotest.(check (option string)) (id ^ " output in this build")
            (Some o.Serve.Jobs.o_output) v.Serve.Scheduler.v_output
        | Error msg -> Alcotest.failf "job %s fails in this build: %s" id msg)
    [ ("r1", "failed"); ("l1", "done"); ("b1", "failed"); ("f1", "failed");
      ("r2", "done"); ("f2", "done"); ("c1", "cancelled") ];
  Serve.Scheduler.shutdown scheduler;
  Checkpoint.Journal.close journal

(* Journal blobs are rendered only when a journal is open; when one is,
   every record is the per-byte reference rendering of the job it
   checkpoints: its JSON under spec/, its final state under done/. *)
let test_journal_records_match_eager () =
  let path = fresh_journal_path () in
  let journal =
    Checkpoint.Journal.open_ ~path ~meta:Serve.Scheduler.journal_meta
  in
  let scheduler =
    Serve.Scheduler.create ~journal ~jobs:1 (Serve.Session.create ())
  in
  let submit id job =
    match Serve.Scheduler.submit scheduler ~id job with
    | Ok _ -> ()
    | Error r -> Alcotest.fail r.Serve.Scheduler.rj_reason
  in
  let wait id =
    match Serve.Scheduler.result scheduler ~wait:true id with
    | Some v -> v
    | None -> Alcotest.failf "job %s lost" id
  in
  let refine =
    Serve.Protocol.Obj
      [ ("kind", Serve.Protocol.String "refine");
        ("spec", Serve.Protocol.String "program \"q\"\n\t\\ \x01 \xc3\xa9");
        ("model", Serve.Protocol.Int 2) ]
  in
  let good =
    Serve.Protocol.Obj
      [ ("kind", Serve.Protocol.String "refine");
        ("spec", Serve.Protocol.String fig1_src) ]
  in
  (* the blocker holds the single worker until it is cancelled *)
  let blocker =
    Serve.Protocol.Obj
      [ ("kind", Serve.Protocol.String "explore");
        ("spec", Serve.Protocol.String fig2_src);
        ("steps", Serve.Protocol.Int 20_000);
        ("retries", Serve.Protocol.Int 0);
        ( "seeds",
          Serve.Protocol.List
            (List.init 1000 (fun i -> Serve.Protocol.Int (i + 1))) ) ]
  in
  submit "done" good;
  let v_done = wait "done" in
  submit "failed" refine;
  let v_failed = wait "failed" in
  submit "blocker" blocker;
  let give_up = Unix.gettimeofday () +. 30.0 in
  while
    (Option.get (Serve.Scheduler.status scheduler "blocker"))
      .Serve.Scheduler.v_state
    <> Serve.Protocol.Running
  do
    if Unix.gettimeofday () > give_up then
      Alcotest.fail "blocker never started";
    Thread.delay 0.001
  done;
  submit "queued" good;
  let v_queued = Result.get_ok (Serve.Scheduler.cancel scheduler "queued") in
  ignore (Result.get_ok (Serve.Scheduler.cancel scheduler "blocker"));
  let v_blocker = wait "blocker" in
  Serve.Scheduler.shutdown scheduler;
  let outcome v =
    oracle_to_string
      (Serve.Protocol.Obj
         (List.filter
            (fun (k, _) -> k <> "id" && k <> "replayed")
            (Serve.Scheduler.view_fields v)))
  in
  List.iter
    (fun (v, state) ->
      Alcotest.(check string) "final state" state
        (Serve.Protocol.state_name v.Serve.Scheduler.v_state))
    [ (v_done, "done"); (v_failed, "failed"); (v_queued, "cancelled");
      (v_blocker, "cancelled") ];
  Alcotest.(check (list (pair string string)))
    "records"
    [ ("spec/done", oracle_to_string good); ("done/done", outcome v_done);
      ("spec/failed", oracle_to_string refine);
      ("done/failed", outcome v_failed);
      ("spec/blocker", oracle_to_string blocker);
      ("spec/queued", oracle_to_string good); ("cancel/queued", "");
      ("done/queued", outcome v_queued); ("cancel/blocker", "");
      ("done/blocker", outcome v_blocker) ]
    (Checkpoint.Journal.entries journal);
  Checkpoint.Journal.close journal

let test_max_jobs_backpressure () =
  let session = Serve.Session.create () in
  let scheduler = Serve.Scheduler.create ~max_jobs:1 session in
  let job =
    Serve.Protocol.Obj
      [ ("kind", Serve.Protocol.String "refine");
        ("spec", Serve.Protocol.String fig1_src) ]
  in
  (match Serve.Scheduler.submit scheduler ~id:"one" job with
  | Ok _ -> ()
  | Error r -> Alcotest.fail r.Serve.Scheduler.rj_reason);
  (match Serve.Scheduler.submit scheduler ~id:"two" job with
  | Ok _ -> Alcotest.fail "second submit exceeded max_jobs"
  | Error r ->
    Alcotest.(check bool) "mentions full" true
      (contains_sub ~sub:"full" r.Serve.Scheduler.rj_reason);
    (* a hard table-full rejection carries no backoff hint *)
    Alcotest.(check bool) "no retry hint" true
      (r.Serve.Scheduler.rj_retry_after_ms = None));
  (* Idempotent resubmits of a retained id still work at the cap. *)
  (match Serve.Scheduler.submit scheduler ~id:"one" job with
  | Ok _ -> ()
  | Error r -> Alcotest.fail r.Serve.Scheduler.rj_reason);
  Serve.Scheduler.shutdown scheduler

let test_max_pending_backpressure () =
  let session = Serve.Session.create () in
  (* A tiny admission cap: saturating it must turn submits away with a
     retry hint, and an idempotent resubmit of an admitted id must
     bypass admission.  The single worker is held on a sweep of 12,000
     short candidates — far too long to finish on its own, yet
     cancellable between any two of them — so no queued job can drain
     between the saturating and the overflow submit. *)
  let scheduler = Serve.Scheduler.create ~jobs:1 ~max_pending:4 session in
  let blocker =
    Serve.Protocol.Obj
      [ ("kind", Serve.Protocol.String "explore");
        ("spec", Serve.Protocol.String fig2_src);
        ("steps", Serve.Protocol.Int 20_000);
        ("retries", Serve.Protocol.Int 0);
        ( "seeds",
          Serve.Protocol.List
            (List.init 1000 (fun i -> Serve.Protocol.Int (i + 1))) ) ]
  in
  (match Serve.Scheduler.submit scheduler ~id:"blocker" blocker with
  | Ok _ -> ()
  | Error r -> Alcotest.fail r.Serve.Scheduler.rj_reason);
  let state id =
    match Serve.Scheduler.status scheduler id with
    | Some v -> v.Serve.Scheduler.v_state
    | None -> Alcotest.failf "job %s lost" id
  in
  let give_up = Unix.gettimeofday () +. 30.0 in
  while state "blocker" <> Serve.Protocol.Running do
    if Unix.gettimeofday () > give_up then
      Alcotest.fail "blocker never started";
    Thread.delay 0.001
  done;
  let job =
    Serve.Protocol.Obj
      [ ("kind", Serve.Protocol.String "refine");
        ("spec", Serve.Protocol.String fig1_src) ]
  in
  let rec fill n =
    (* saturate the queue behind the running blocker *)
    if n < 64 then
      match Serve.Scheduler.submit scheduler ~id:(Printf.sprintf "f%d" n) job with
      | Ok _ -> fill (n + 1)
      | Error _ -> n
    else n
  in
  Alcotest.(check int) "three queue behind the blocker" 3 (fill 0);
  (match Serve.Scheduler.submit scheduler ~id:"overflow" job with
  | Ok _ -> Alcotest.fail "submit admitted past max_pending"
  | Error r ->
    Alcotest.(check bool) "mentions busy" true
      (contains_sub ~sub:"busy" r.Serve.Scheduler.rj_reason);
    (match r.Serve.Scheduler.rj_retry_after_ms with
    | Some ms ->
      Alcotest.(check bool) "hint in clamp range" true (ms >= 25 && ms <= 60_000)
    | None -> Alcotest.fail "busy rejection lost its retry hint"));
  (* Resubmitting an admitted id is idempotent even while saturated. *)
  (match Serve.Scheduler.submit scheduler ~id:"f0" job with
  | Ok _ -> ()
  | Error r -> Alcotest.fail r.Serve.Scheduler.rj_reason);
  Alcotest.(check bool) "blocker still running" true
    (state "blocker" = Serve.Protocol.Running);
  (match Serve.Scheduler.cancel scheduler "blocker" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Serve.Scheduler.shutdown scheduler

(* --- jobs: lint fix field handling -------------------------------------- *)

let test_lint_fix_fields () =
  let session = Serve.Session.create () in
  let poll () = false in
  let job fields =
    Serve.Protocol.Obj
      (("kind", Serve.Protocol.String "lint")
      :: ("spec", Serve.Protocol.String fig1_src)
      :: fields)
  in
  (* Report-only knobs conflict with fix=true: rejected, not ignored. *)
  (match
     Serve.Jobs.run ~session ~poll
       (job
          [ ("fix", Serve.Protocol.Bool true);
            ("json", Serve.Protocol.Bool true);
            ("flow", Serve.Protocol.Bool true) ])
   with
  | Ok _ -> Alcotest.fail "conflicting report fields accepted"
  | Error msg ->
    Alcotest.(check bool) "names json" true (contains_sub ~sub:"json" msg);
    Alcotest.(check bool) "names flow" true (contains_sub ~sub:"flow" msg));
  (* codes is honored, so a non-fixable code is an error. *)
  (match
     Serve.Jobs.run ~session ~poll
       (job
          [ ("fix", Serve.Protocol.Bool true);
            ("codes", Serve.Protocol.List [ Serve.Protocol.String "LIVE004" ])
          ])
   with
  | Ok _ -> Alcotest.fail "non-fixable code accepted"
  | Error msg ->
    Alcotest.(check bool) "names the code" true
      (contains_sub ~sub:"LIVE004" msg));
  (* A plain fix job runs; fig1 has nothing fixable, so no rewrite. *)
  match Serve.Jobs.run ~session ~poll (job [ ("fix", Serve.Protocol.Bool true) ]) with
  | Ok o ->
    Alcotest.(check bool) "reports changed:false" true
      (contains_sub ~sub:"\"changed\":false" o.Serve.Jobs.o_output)
  | Error msg -> Alcotest.fail msg

(* A journal's meta is built only when a journal opens: for a faults job
   it is the whole refined design, printed and digested. *)
let test_journal_meta_lazy () =
  Alcotest.(check (result bool string)) "no journal, no meta" (Ok true)
    (Command.with_journal None
       ~meta:(fun () -> failwith "forced")
       (fun j -> Ok (Option.is_none j)));
  let path = fresh_journal_path () in
  let built = ref 0 in
  Alcotest.(check (result bool string)) "journal opened" (Ok true)
    (Command.with_journal (Some path)
       ~meta:(fun () -> incr built; "meta")
       (fun j -> Ok (Option.is_some j)));
  Sys.remove path;
  Alcotest.(check int) "meta built once" 1 !built

(* Bad partition and sweep parameters are structured job errors, not
   exceptions escaping the job. *)
let test_bad_partition_fields () =
  let session = Serve.Session.create () in
  let run kind fields =
    Serve.Jobs.run ~session ~poll:(fun () -> false)
      (Serve.Protocol.Obj
         (("kind", Serve.Protocol.String kind)
         :: ("spec", Serve.Protocol.String fig1_src)
         :: fields))
  in
  List.iter
    (fun (kind, fields, frag) ->
      match run kind fields with
      | Ok _ -> Alcotest.failf "%s job with bad fields ran" kind
      | Error msg ->
        Alcotest.(check bool) (msg ^ " names the problem") true
          (contains_sub ~sub:frag msg);
        Alcotest.(check bool) (msg ^ " is no exception") false
          (contains_sub ~sub:"job raised" msg))
    [
      ( "refine",
        [ ("assign", Serve.Protocol.String "A=7,B=1,C=0,x=1") ],
        "A assigned to partition 7" );
      ( "refine",
        [ ("assign", Serve.Protocol.String "A=x") ],
        "bad partition index" );
      ("faults", [ ("parts", Serve.Protocol.Int 0) ], "parts must be >= 1");
      ("explore", [ ("parts", Serve.Protocol.Int 0) ], "parts must be >= 1");
      ( "faults",
        [ ("deadline", Serve.Protocol.Float (-1.0)) ],
        "deadline must be finite and > 0" );
      ( "faults",
        [ ("deadline", Serve.Protocol.Float Float.nan) ],
        "deadline must be finite and > 0" );
      ( "explore",
        [ ("deadline", Serve.Protocol.Int 0) ],
        "deadline must be finite and > 0" );
      ("explore", [ ("steps", Serve.Protocol.Int (-5)) ], "steps must be >= 0");
      ("explore", [ ("top", Serve.Protocol.Int (-1)) ], "top must be >= 0");
    ]

(* --- session ------------------------------------------------------------ *)

let test_session_elaboration_cache () =
  let session = Serve.Session.create () in
  let e1 =
    match Serve.Session.elaborate session ~source:fig1_src with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let e2 =
    match Serve.Session.elaborate session ~source:fig1_src with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  (* Same source must come back as the same physical program — that is
     what lets the simulator's session cache rewind instead of
     re-elaborating. *)
  Alcotest.(check bool) "physically shared" true
    (e1.Serve.Session.el_program == e2.Serve.Session.el_program);
  let stats = Serve.Session.stats session in
  Alcotest.(check int) "one hit" 1 stats.Serve.Session.st_elab_hits;
  Alcotest.(check int) "one miss" 1 stats.Serve.Session.st_elab_misses;
  match Serve.Session.elaborate session ~source:"program broken" with
  | Ok _ -> Alcotest.fail "parse error accepted"
  | Error _ -> ()

let test_session_elab_lru () =
  let session = Serve.Session.create () in
  let cap = Serve.Session.elab_entries in
  let specs =
    List.init (cap + 1) (fun i ->
        Printf.sprintf
          "program p_%d is\n  var x : int<8> := 0;\n  behavior TOP : leaf is\n  \
           begin\n    x := 1;\n  end behavior\nend program\n"
          i)
  in
  List.iter
    (fun src ->
      match Serve.Session.elaborate session ~source:src with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)
    specs;
  let stats = Serve.Session.stats session in
  Alcotest.(check int) "capped" cap stats.Serve.Session.st_elab_entries

(* --- the refinement memo -------------------------------------------------- *)

let faults_job ?(src = fig1_src) fields =
  Serve.Protocol.Obj
    (("kind", Serve.Protocol.String "faults")
    :: ("spec", Serve.Protocol.String src)
    :: ("seeds", Serve.Protocol.Int 2)
    :: ("json", Serve.Protocol.Bool true)
    :: fields)

let run_job session job =
  Serve.Jobs.run ~session ~poll:(fun () -> false) job
  |> Result.map (fun o -> o.Serve.Jobs.o_output)

let refined_counts session =
  let st = Serve.Session.stats session in
  Serve.Session.(st.st_refined_hits, st.st_refined_misses, st.st_refined_entries)

let counts = Alcotest.(triple int int int)

let test_refined_memo_hit () =
  let session = Serve.Session.create () in
  let job = faults_job [ ("harden", Serve.Protocol.Bool true) ] in
  let first = run_job session job in
  Alcotest.(check bool) "campaign ran" true (Result.is_ok first);
  Alcotest.check counts "first run misses" (0, 1, 1) (refined_counts session);
  let second = run_job session job in
  Alcotest.check counts "second run hits" (1, 1, 1) (refined_counts session);
  Alcotest.(check (result string string)) "byte-identical" first second;
  Alcotest.(check (result string string))
    "as on a fresh session" first
    (run_job (Serve.Session.create ()) job)

let test_refined_memo_keys_design () =
  let session = Serve.Session.create () in
  List.iter
    (fun fields ->
      Alcotest.(check bool) "campaign ran" true
        (Result.is_ok (run_job session (faults_job fields))))
    [
      [];
      [ ("harden", Serve.Protocol.Bool true) ];
      [ ("model", Serve.Protocol.String "3") ];
    ];
  Alcotest.check counts "three designs, three entries" (0, 3, 3)
    (refined_counts session)

let test_refined_memo_follows_elab () =
  let session = Serve.Session.create () in
  let elab =
    match Serve.Session.elaborate session ~source:fig1_src with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  ignore (run_job session (faults_job []));
  Alcotest.check counts "memoized" (0, 1, 1) (refined_counts session);
  for i = 1 to Serve.Session.elab_entries do
    let src =
      Printf.sprintf
        "program q_%d is\n  var x : int<8> := 0;\n  behavior TOP : leaf is\n\
        \  begin\n    x := 1;\n  end behavior\nend program\n"
        i
    in
    match Serve.Session.elaborate session ~source:src with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done;
  Alcotest.check counts "dropped with its elaboration" (0, 1, 0)
    (refined_counts session);
  (* A job still holding the evicted elaboration refines afresh and
     stores nothing. *)
  let refine () =
    Command.refine elab.Serve.Session.el_program
      (Explore.Evaluate.graph elab.Serve.Session.el_ctx)
      Command.default_design
  in
  (match Serve.Session.refined session elab ~key:"k" refine with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.check counts "stale elaboration stores nothing" (0, 2, 0)
    (refined_counts session)

(* Both jobs simulate one refined program, so the second campaign's
   golden run is served from the engine session's golden memo: the
   dispatcher runs jobs in this domain under [--jobs 1], and the stats
   reply's [sim_sessions] object counts the hit. *)
let test_golden_memo_served () =
  let fields =
    [
      ("kind", Serve.Protocol.String "faults");
      ("spec", Serve.Protocol.String fig1_src);
      ("seeds", Serve.Protocol.Int 2);
      ("json", Serve.Protocol.Bool true);
      ("harden", Serve.Protocol.Bool true);
    ]
  in
  let fresh = run_job (Serve.Session.create ()) (Serve.Protocol.Obj fields) in
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let golden () =
        let _, v = reply_ok (roundtrip conn "{\"op\":\"stats\"}") in
        ( nested_int "sim_sessions" "golden_hits" v,
          nested_int "sim_sessions" "golden_misses" v )
      in
      let run () =
        let ok, v = reply_ok (roundtrip conn (submit_line fields)) in
        Alcotest.(check bool) "submitted" true ok;
        let r = await_result conn (reply_string "id" v) in
        Alcotest.(check string) "done" "done" (reply_string "state" r);
        reply_string "output" r
      in
      let step () =
        let h0, m0 = golden () in
        let out = run () in
        let h1, m1 = golden () in
        (out, (h1 - h0, m1 - m0))
      in
      let first, golden_first = step () in
      let second, golden_second = step () in
      Alcotest.(check (pair int int)) "first job simulates its golden run"
        (0, 1) golden_first;
      Alcotest.(check (pair int int)) "second job is a golden hit" (1, 0)
        golden_second;
      Alcotest.(check string) "byte-identical" first second;
      Alcotest.(check (result string string))
        "as on a fresh session" fresh (Ok second))

(* A procedure touching a variable that partitioning moves into a
   memory: the refiner refuses it. *)
let unrefinable_src =
  let open Spec in
  Printer.program_to_string
    (Program.make
       ~vars:[ Builder.int_var "v" ]
       ~procs:[ Builder.proc "touch" [ Ast.Assign ("v", Expr.int 1) ] ]
       "bad"
       (Behavior.seq "T"
          [
            Behavior.arm (Behavior.leaf "L1" [ Ast.Call ("touch", []) ]);
            Behavior.arm (Behavior.leaf "L2" [ Ast.Assign ("v", Expr.int 2) ]);
          ]))

let test_refined_errors_not_cached () =
  let session = Serve.Session.create () in
  List.iter
    (fun (src, fields, frag) ->
      let job = faults_job ~src fields in
      let first = run_job session job in
      let second = run_job session job in
      (match first with
      | Ok _ -> Alcotest.failf "unrefinable design ran (%s)" frag
      | Error msg ->
        Alcotest.(check bool) (msg ^ " names the problem") true
          (contains_sub ~sub:frag msg));
      Alcotest.(check (result string string)) "same error twice" first second)
    [
      (unrefinable_src, [ ("assign", Serve.Protocol.String "L1=0,L2=1,v=1") ],
       "accesses partitioned variable v");
      (fig1_src, [ ("assign", Serve.Protocol.String "A=7,B=1,C=0,x=1") ],
       "A assigned to partition 7");
    ];
  Alcotest.check counts "nothing cached" (0, 4, 0) (refined_counts session)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "escapes and unicode" `Quick
            test_json_escapes_and_unicode;
          Alcotest.test_case "rejects malformed" `Quick
            test_json_rejects_malformed;
          Alcotest.test_case "request codec" `Quick test_request_codec;
          Alcotest.test_case "states" `Quick test_states;
          QCheck_alcotest.to_alcotest prop_encoder_matches_oracle;
          QCheck_alcotest.to_alcotest prop_decoder_reads_every_escape;
          Alcotest.test_case "4 MiB string frame" `Quick test_json_big_string;
        ] );
      ( "server",
        [
          Alcotest.test_case "malformed requests survive the connection"
            `Quick test_malformed_requests_survive_connection;
          Alcotest.test_case "submit runs a job" `Quick test_submit_runs_job;
          Alcotest.test_case "litmus job replays the CLI bit-identically"
            `Quick test_litmus_job_replays_cli;
          Alcotest.test_case "unknown job kind fails cleanly" `Quick
            test_unknown_job_kind_fails;
          Alcotest.test_case "concurrent submits with status polls" `Quick
            test_concurrent_submits_with_status_polls;
          Alcotest.test_case "cancel mid-job" `Quick test_cancel_mid_job;
          Alcotest.test_case "idempotent submit" `Quick test_idempotent_submit;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "a frame split at every byte" `Quick
            test_frame_split_everywhere;
          Alcotest.test_case "several frames in one write" `Quick
            test_frames_in_one_write;
          Alcotest.test_case "large request and reply byte-identical" `Quick
            test_large_frames_byte_identical;
          Alcotest.test_case "TCP token auth" `Quick test_tcp_token_auth;
          Alcotest.test_case "deep JSON frame rejected" `Quick
            test_deep_frame_rejected;
          Alcotest.test_case "mid-job disconnect" `Quick
            test_mid_job_disconnect;
          Alcotest.test_case "idle timeout reaps connection" `Quick
            test_idle_timeout_reaps_connection;
          Alcotest.test_case "slow reader write timeout" `Quick
            test_slow_reader_write_timeout;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan is seed-deterministic" `Quick
            test_chaos_plan_deterministic;
          Alcotest.test_case "idempotent retries converge under faults"
            `Quick test_chaos_proxy_converges;
        ] );
      ( "client",
        [
          Alcotest.test_case "refused token is not retried" `Quick
            test_client_refused_token;
          Alcotest.test_case "damaged auth frame is retried" `Quick
            test_client_damaged_auth;
          Alcotest.test_case "busy reply retried after its hint" `Quick
            test_client_busy_retry;
          Alcotest.test_case "resend:false is sent once" `Quick
            test_client_no_resend;
          Alcotest.test_case "generated submit id is stable" `Quick
            test_client_submit_stable_id;
          Alcotest.test_case "dial failures name the endpoint once" `Quick
            test_client_dial_errors;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "restart replays done, resumes in-flight"
            `Quick test_restart_replays_done_and_resumes_inflight;
          Alcotest.test_case "cancelled pending survives restart" `Quick
            test_cancelled_pending_survives_restart;
          Alcotest.test_case "older journal replays unchanged" `Quick
            test_older_journal_replays;
          Alcotest.test_case "journal records match eager renderings"
            `Quick test_journal_records_match_eager;
          Alcotest.test_case "max-jobs backpressure" `Quick
            test_max_jobs_backpressure;
          Alcotest.test_case "max-pending admission control" `Quick
            test_max_pending_backpressure;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "lint fix field handling" `Quick
            test_lint_fix_fields;
          Alcotest.test_case "bad partition fields" `Quick
            test_bad_partition_fields;
          Alcotest.test_case "journal meta only with a journal" `Quick
            test_journal_meta_lazy;
        ] );
      ( "session",
        [
          Alcotest.test_case "elaboration cache" `Quick
            test_session_elaboration_cache;
          Alcotest.test_case "elaboration LRU cap" `Quick
            test_session_elab_lru;
          Alcotest.test_case "faults job reuses its refinement" `Quick
            test_refined_memo_hit;
          Alcotest.test_case "refinement memo keys the whole design" `Quick
            test_refined_memo_keys_design;
          Alcotest.test_case "refinements leave with their elaboration"
            `Quick test_refined_memo_follows_elab;
          Alcotest.test_case "refinement errors are not cached" `Quick
            test_refined_errors_not_cached;
          Alcotest.test_case "faults job reuses its golden run" `Quick
            test_golden_memo_served;
        ] );
    ]
