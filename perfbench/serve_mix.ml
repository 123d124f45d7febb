(* Workload serve-mix: the shipped daemon under a closed-loop job mix.

   The system under test is [mrefine serve --jobs 1], spawned as a child
   process with a TCP listener and a token, so the benchmark's client never
   shares a runtime lock with the daemon.  Two connections — one over the
   Unix socket, one over TCP with auth — each keep one job outstanding:
   submit, wait for the ack, request the result with [wait], repeat.

   The mix repeats a 40-job pattern in which both connections see the same
   kinds: mostly light [refine] and [lint] jobs on generated specs of about
   the medical system's size, and a minority of [faults] and [explore]
   jobs on the medical system itself.  Every fourth light job carries a
   specification the daemon has never seen (an elaboration-cache miss);
   the rest repeat a hot set (hits).  A cycle holds enough fresh
   specifications that none is still cached when the sequence wraps.

   Set-up generates the inputs, replays every distinct job in-process
   through {!Serve.Jobs.run} on a fresh {!Serve.Session} — the reference
   outputs, and the per-kind execution times — starts the daemon and runs a
   warm-up round.  Every served output must be byte-identical to its
   reference, and no reply may be [busy]. *)

open Harness
module P = Serve.Protocol

let pattern_pairs =
  (* 20 pairs: 6 lint, 10 refine, 3 faults, 1 explore *)
  [| "lint"; "refine"; "refine"; "lint"; "refine"; "faults"; "refine";
     "lint"; "refine"; "explore"; "refine"; "lint"; "refine"; "faults";
     "refine"; "lint"; "refine"; "refine"; "lint"; "faults" |]

let pattern = Array.length pattern_pairs * 2
let repeats = 8 (* pattern repeats per sequence cycle *)
let cycle = pattern * repeats
let hot_specs = 16
let warmup_jobs = 40

(* The daemon keeps every job it ran, so its resident set grows with the
   number served.  Its peak is read once this many timed jobs are done,
   which makes it a property of the jobs rather than of the host's speed
   during the run. *)
let rss_after_jobs = 400

type job = {
  j_kind : string;
  j_json : P.json;
  j_key : string;  (** the job's JSON text: identifies its reference *)
}

type reference = {
  r_kind : string;
  r_output : string;
  r_cached : string;
      (** the output once the evaluation cache holds the job: explore
          reports which candidates were cached; every other kind repeats
          [r_output] *)
  r_exec_ms : float;
}

type sample = {
  sm_index : int;
  sm_kind : string;
  sm_conn : string;
  sm_ms : float;  (** submit sent -> result received *)
  sm_submit_ms : float;
  sm_wait_ms : float;
  sm_ok : bool;
}

type conn = {
  c_name : string;
  c_fd : Unix.file_descr;
  c_slot : int;  (** 0 or 1: the connection's share of the sequence *)
  c_buf : Buffer.t;
  mutable c_index : int;  (** sequence index of the job in flight *)
  mutable c_phase : [ `Idle | `Ack | `Result ];
  mutable c_t0 : float;
  mutable c_t_ack : float;
  mutable c_repeat : bool;  (** the daemon had finished this job before *)
}

type daemon = {
  d_pid : int;
  d_dir : string;
  d_conns : conn list;
  d_done : (string, unit) Hashtbl.t;  (** job keys the daemon has finished *)
}

type state = {
  jobs : job array;
  refs : (string, reference) Hashtbl.t;
  daemon : daemon;
  warm_stats : P.json;
}

let spec_config seed =
  {
    Workloads.Generator.gen_seed = seed;
    gen_vars = 10;
    gen_leaves = 14;
    gen_stmts = 5;
    gen_par_branches = 0;
  }

let spec_text seed =
  Spec.Printer.program_to_string
    (Workloads.Generator.program (spec_config seed))

(* The job sequence of one cycle, from the seed.  Positions [n] and [n+1]
   (n even) carry the same kind, so the two connections see the same mix.
   Light jobs draw generated specifications: every fourth one is fresh,
   the rest come from the hot set.  Heavy jobs are fixed requests on the
   medical system that cycle through the four models: a one-seed hardened
   fault campaign, and a one-seed 200-step exploration that the daemon's
   evaluation cache answers after its first run. *)
let make_jobs seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let hot = Array.init hot_specs (fun k -> spec_text ((seed * 10_000) + k)) in
  let medical = P.String (Spec.Printer.program_to_string Workloads.Medical.spec) in
  let fresh_counter = ref 0 in
  let light = ref 0 in
  let spec_for_light () =
    incr light;
    if !light mod 4 = 0 then begin
      incr fresh_counter;
      spec_text ((seed * 10_000) + 1_000 + !fresh_counter)
    end
    else hot.(Random.State.int rng hot_specs)
  in
  let model p = P.String (string_of_int (1 + (p mod 4))) in
  let pairs = ref [] in
  let heavy = Hashtbl.create 2 in
  for n = 0 to (cycle / 2) - 1 do
    let kind = pattern_pairs.(n mod Array.length pattern_pairs) in
    (* the how-many-th pair of its kind: picks model and base seed *)
    let h = Option.value ~default:0 (Hashtbl.find_opt heavy kind) in
    Hashtbl.replace heavy kind (h + 1);
    let job () =
      let fields =
        match kind with
        | "refine" ->
          [ ("spec", P.String (spec_for_light ()));
            ("model", P.String (string_of_int (1 + Random.State.int rng 4))) ]
        | "lint" ->
          [ ("spec", P.String (spec_for_light ())); ("file", P.String "spec.sc") ]
        | "faults" ->
          [ ("spec", medical); ("model", model h); ("harden", P.Bool true);
            ("seeds", P.Int 1); ("base_seed", P.Int (1 + (h / 4 mod 4))) ]
        | _ ->
          [ ("spec", medical); ("models", P.List [ model h ]);
            ("seeds", P.List [ P.Int 1 ]); ("steps", P.Int 200) ]
      in
      let json = P.Obj (("kind", P.String kind) :: fields) in
      { j_kind = kind; j_json = json; j_key = P.to_string json }
    in
    let first = job () in
    let second = job () in
    pairs := second :: first :: !pairs
  done;
  Array.of_list (List.rev !pairs)

(* In-process replay of the sequence on a fresh session: the reference
   output and execution time of every distinct job. *)
let replay jobs =
  let session = Serve.Session.create () in
  let refs = Hashtbl.create 512 in
  Array.iter
    (fun j ->
      if not (Hashtbl.mem refs j.j_key) then begin
        let exec () =
          match Serve.Jobs.run ~session ~poll:(fun () -> false) j.j_json with
          | Ok o -> o.Serve.Jobs.o_output
          | Error msg -> failwith ("reference " ^ j.j_kind ^ " job failed: " ^ msg)
        in
        let t0 = now () in
        let r_output = exec () in
        let r_exec_ms = (now () -. t0) *. 1e3 in
        let r_cached = if j.j_kind = "explore" then exec () else r_output in
        Hashtbl.replace refs j.j_key { r_kind = j.j_kind; r_output; r_cached; r_exec_ms }
      end)
    jobs;
  refs

(* In-process execution times of the distinct jobs of one kind, in ms. *)
let exec_times refs kind =
  Hashtbl.fold
    (fun _ r acc -> if r.r_kind = kind then r.r_exec_ms :: acc else acc)
    refs []

(* --- the client side ---------------------------------------------------- *)

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Complete lines received on [c], reading once from its socket. *)
let read_lines c =
  let n = Unix.read c.c_fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith (c.c_name ^ ": daemon closed the connection");
  Buffer.add_subbytes c.c_buf chunk 0 n;
  let data = Buffer.contents c.c_buf in
  match String.rindex_opt data '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.c_buf;
    Buffer.add_string c.c_buf
      (String.sub data (last + 1) (String.length data - last - 1));
    String.split_on_char '\n' (String.sub data 0 last)

let request c fields = write_line c.c_fd (P.to_string (P.Obj fields))

(* One blocking round trip on an idle connection. *)
let rpc c fields =
  request c fields;
  let rec await () =
    match read_lines c with
    | [] -> await ()
    | [ line ] -> (
      match P.parse line with
      | Ok j -> j
      | Error msg -> failwith ("bad reply: " ^ msg))
    | _ -> failwith "unexpected extra reply"
  in
  await ()

let submit ~seen jobs c =
  let j = jobs.(c.c_index mod cycle) in
  c.c_repeat <- Hashtbl.mem seen j.j_key;
  c.c_t0 <- now ();
  c.c_phase <- `Ack;
  request c [ ("op", P.String "submit"); ("job", j.j_json) ]

(* Drive both connections closed-loop, each over every other sequence
   index from [first], until [stop n] holds for the next index of every
   connection; in-flight jobs are always completed.  [tick finished] runs
   after each batch of replies.  While [pause ()] holds, a connection whose
   job completes submits nothing; once both are idle, [on_pause ()] runs
   with the daemon idle and the two resume.  Returns the samples, oldest
   first. *)
let drive ?(tick = ignore) ?(pause = fun () -> false) ?(on_pause = ignore)
    ~jobs ~refs ~seen ~first ~stop ~traced conns =
  let samples = ref [] in
  let finished = ref 0 in
  let live = ref 0 in
  let parked = ref [] in
  let issue c n =
    if stop n then c.c_phase <- `Idle
    else if pause () then begin
      c.c_phase <- `Idle;
      parked := (c, n) :: !parked
    end
    else begin
      c.c_index <- n;
      incr live;
      submit ~seen jobs c
    end
  in
  (* The TCP connection runs half a pattern ahead, so the two connections
     never submit heavy jobs at the same time. *)
  List.iter (fun c -> issue c (first + c.c_slot + (c.c_slot * pattern / 2))) conns;
  let finish c ~ok ~t_end =
    decr live;
    let j = jobs.(c.c_index mod cycle) in
    let s =
      {
        sm_index = c.c_index;
        sm_kind = j.j_kind;
        sm_conn = c.c_name;
        sm_ms = (t_end -. c.c_t0) *. 1e3;
        sm_submit_ms = (c.c_t_ack -. c.c_t0) *. 1e3;
        sm_wait_ms = (t_end -. c.c_t_ack) *. 1e3;
        sm_ok = ok;
      }
    in
    if traced c.c_index then begin
      let op = Spans.add ~op:c.c_index "op" c.c_t0 t_end in
      ignore (Spans.add ~parent:op ~op:c.c_index "serve.submit" c.c_t0 c.c_t_ack);
      ignore (Spans.add ~parent:op ~op:c.c_index "serve.wait" c.c_t_ack t_end)
    end;
    samples := s :: !samples;
    incr finished;
    issue c (c.c_index + 2)
  in
  let on_reply c line =
    let t = now () in
    let reply =
      match P.parse line with Ok j -> j | Error msg -> failwith ("bad reply: " ^ msg)
    in
    let ok = P.bool_field ~default:false "ok" reply = Ok true in
    match c.c_phase with
    | `Ack ->
      c.c_t_ack <- t;
      if not ok then begin
        Printf.eprintf "serve %s: job %d refused: %s\n%!" c.c_name c.c_index line;
        finish c ~ok:false ~t_end:t
      end
      else begin
        let id = Result.get_ok (P.string_field "id" reply) in
        c.c_phase <- `Result;
        request c
          [ ("op", P.String "result"); ("id", P.String id); ("wait", P.Bool true) ]
      end
    | `Result ->
      let j = jobs.(c.c_index mod cycle) in
      let r = Hashtbl.find refs j.j_key in
      (* A job finished before its submit must come back in its cached
         form; a first one may too, when the other connection's copy of the
         same job ran first. *)
      let expected =
        if c.c_repeat then [ r.r_cached ] else [ r.r_output; r.r_cached ]
      in
      let good =
        ok
        && P.string_field "state" reply = Ok "done"
        && (match P.string_field "output" reply with
           | Ok out -> List.mem out expected
           | Error _ -> false)
      in
      Hashtbl.replace seen j.j_key ();
      if not good then
        Printf.eprintf "serve %s: job %d (%s) wrong result\n%!" c.c_name
          c.c_index j.j_kind;
      finish c ~ok:good ~t_end:t
    | `Idle -> failwith "reply on an idle connection"
  in
  while !live > 0 || !parked <> [] do
    if !live = 0 then begin
      on_pause ();
      let resume = List.rev !parked in
      parked := [];
      List.iter (fun (c, n) -> issue c n) resume
    end
    else
      let busy = List.filter (fun c -> c.c_phase <> `Idle) conns in
      match Unix.select (List.map (fun c -> c.c_fd) busy) [] [] 120. with
      | [], _, _ -> failwith "daemon did not answer within 120 s"
      | ready, _, _ ->
        List.iter
          (fun c ->
            if List.mem c.c_fd ready then List.iter (on_reply c) (read_lines c))
          busy;
        tick !finished
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.rev !samples

(* --- the daemon --------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let tcp_port_of_log log =
  let marker = "tcp port " in
  let rec find i =
    if i + String.length marker > String.length log then None
    else if String.sub log i (String.length marker) = marker then
      Scanf.sscanf
        (String.sub log (i + String.length marker)
           (String.length log - i - String.length marker))
        "%d" Option.some
    else find (i + 1)
  in
  find 0

let dir_counter = ref 0

(* Daemons started and not yet stopped, as (pid, directory): {!kill_all}
   ends them when a run fails, so no daemon, socket or log outlives the
   benchmark. *)
let live : (int * string) list ref = ref []

let start_daemon ~mrefine =
  incr dir_counter;
  let dir =
    Printf.sprintf "perfbench/out/serve-%d-%d" (Unix.getpid ()) !dir_counter
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let log = Filename.concat dir "serve.log" in
  let token = Printf.sprintf "bench-%d" (Unix.getpid ()) in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process mrefine
      [| mrefine; "serve"; "--socket"; socket; "--jobs"; "1";
         "--listen"; "127.0.0.1:0"; "--token"; token;
         "--max-jobs"; "10000000" |]
      null null err
  in
  live := (pid, dir) :: !live;
  Unix.close err;
  Unix.close null;
  let deadline = now () +. 30. in
  let rec await_port () =
    match tcp_port_of_log (read_file log) with
    | Some port when Sys.file_exists socket -> port
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("daemon exited early: " ^ read_file log));
      if now () > deadline then failwith "daemon did not start within 30 s";
      Unix.sleepf 0.01;
      await_port ()
  in
  let port = await_port () in
  let connect name slot endpoint =
    match Serve.Server.connect_endpoint endpoint with
    | Error msg -> failwith ("connect " ^ name ^ ": " ^ msg)
    | Ok fd ->
      {
        c_name = name;
        c_fd = fd;
        c_slot = slot;
        c_buf = Buffer.create 65536;
        c_index = 0;
        c_phase = `Idle;
        c_t0 = 0.;
        c_t_ack = 0.;
        c_repeat = false;
      }
  in
  let unix = connect "unix" 0 (Serve.Server.Unix_path socket) in
  let tcp = connect "tcp" 1 (Serve.Server.Tcp { host = "127.0.0.1"; port }) in
  let auth = rpc tcp [ ("op", P.String "auth"); ("token", P.String token) ] in
  if P.bool_field ~default:false "authenticated" auth <> Ok true then
    failwith "TCP authentication failed";
  { d_pid = pid; d_dir = dir; d_conns = [ unix; tcp ]; d_done = Hashtbl.create 512 }

let stats d = rpc (List.hd d.d_conns) [ ("op", P.String "stats") ]

(* Stop the daemon through the protocol; it must exit 0. *)
let stop_daemon d =
  let reply = rpc (List.hd d.d_conns) [ ("op", P.String "shutdown") ] in
  List.iter (fun c -> Unix.close c.c_fd) d.d_conns;
  let _, status = Unix.waitpid [] d.d_pid in
  live := List.filter (fun (pid, _) -> pid <> d.d_pid) !live;
  rm_rf d.d_dir;
  if P.bool_field ~default:false "stopping" reply <> Ok true then
    failwith "daemon refused shutdown";
  if status <> Unix.WEXITED 0 then failwith "daemon did not exit 0 after shutdown"

(* utime + stime of a process, in ms. *)
let cpu_ms pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line. *)
  let rest =
    String.sub stat
      (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  let ticks = float_of_string fields.(11) +. float_of_string fields.(12) in
  ticks *. 10.

let kill_all () =
  List.iter
    (fun (pid, dir) ->
      (try
         Unix.kill pid Sys.sigkill;
         ignore (Unix.waitpid [] pid)
       with Unix.Unix_error _ -> ());
      rm_rf dir)
    !live;
  live := []

let setup ~seed ~mrefine () =
  let t0 = now () in
  let jobs = make_jobs seed in
  let t1 = now () in
  let refs = replay jobs in
  let t2 = now () in
  let daemon = start_daemon ~mrefine in
  let t3 = now () in
  let warm =
    drive ~jobs ~refs ~seen:daemon.d_done ~first:0
      ~stop:(fun n -> n >= warmup_jobs)
      ~traced:(fun _ -> false) daemon.d_conns
  in
  Printf.eprintf
    "set-up: inputs %.3f s, reference replay %.3f s, daemon start %.3f s, \
     warm-up %.3f s; in-process exec medians:%s\n%!"
    (t1 -. t0) (t2 -. t1) (t3 -. t2) (now () -. t3)
    (String.concat ""
       (List.map
          (fun k -> Printf.sprintf " %s %.2f ms" k (median (exec_times refs k)))
          [ "refine"; "lint"; "faults"; "explore" ]));
  if List.exists (fun s -> not s.sm_ok) warm then failwith "warm-up job failed";
  { jobs; refs; daemon; warm_stats = stats daemon }

let int_at path json =
  let rec go j = function
    | [] -> (match j with P.Int n -> n | _ -> 0)
    | k :: rest -> (match P.member k j with Some v -> go v rest | None -> 0)
  in
  go json path

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* Every [probe_every] seconds the two connections drain, and the host
   probe runs while the daemon is idle.  A probe run while the daemon
   works competes with it for a core and measured that contention instead
   of the host: same-seed runs scaled by it still spread 25%. *)
let probe_every = 0.5

let measure ~seed ~seconds ~trace ~mrefine =
  let probe = Probe.start () in
  let setups =
    List.init 3 (fun _ ->
        ignore (Probe.sample probe);
        let t0 = now () in
        let st = setup ~seed ~mrefine () in
        (now () -. t0, st))
  in
  List.iteri (fun k (_, st) -> if k < 2 then stop_daemon st.daemon) setups;
  let setup_s = median (List.map fst setups) in
  let st = snd (List.nth setups 2) in
  let d = st.daemon in
  let cpu0 = cpu_ms d.d_pid in
  let t_start = now () in
  let traced n = trace && n / cycle mod 2 = 0 in
  Spans.enabled := trace;
  let rss = ref None in
  let tick finished =
    if !rss = None && finished >= rss_after_jobs then
      rss := Some (peak_rss_mb (string_of_int d.d_pid))
  in
  let last_probe = ref t_start in
  let probing = ref 0. in
  let on_pause () =
    probing := !probing +. Probe.sample probe;
    last_probe := now ()
  in
  let samples =
    drive ~tick
      ~pause:(fun () -> now () -. !last_probe > probe_every)
      ~on_pause ~jobs:st.jobs ~refs:st.refs ~seen:d.d_done ~first:warmup_jobs
      ~stop:(fun _ -> now () -. t_start >= seconds)
      ~traced d.d_conns
  in
  let elapsed = now () -. t_start -. !probing in
  let cpu = cpu_ms d.d_pid -. cpu0 in
  let final = stats d in
  let rss =
    match !rss with Some r -> r | None -> peak_rss_mb (string_of_int d.d_pid)
  in
  stop_daemon d;
  let f = Probe.factor probe in
  let ops = List.length samples in
  let good = List.filter (fun s -> s.sm_ok) samples in
  let failed = ops - List.length good in
  let busy = int_at [ "busy_rejects" ] final in
  let lat = List.map (fun s -> s.sm_ms) good in
  let metrics =
    if not trace then begin
      print_classes ~f
        (List.map
           (fun s ->
             { s_index = s.sm_index; s_class = s.sm_kind; s_ms = s.sm_ms;
               s_ok = true; s_traced = false })
           good)
        ~p50:(median lat) ~p90:(quantile 0.9 lat);
      end_to_end ~f ~setup:setup_s ~ops ~busy_s:elapsed ~latencies:lat ~rss
    end
    else begin
      let med f xs = median (List.map f xs) in
      let where p = List.filter p good in
      let kind k = med (fun s -> s.sm_ms) (where (fun s -> s.sm_kind = k)) in
      let conn c = med (fun s -> s.sm_ms) (where (fun s -> s.sm_conn = c)) in
      let exec k = median (exec_times st.refs k) in
      let light = where (fun s -> s.sm_kind = "refine" || s.sm_kind = "lint") in
      let overhead =
        med
          (fun s ->
            s.sm_ms -. (Hashtbl.find st.refs st.jobs.(s.sm_index mod cycle).j_key).r_exec_ms)
          light
      in
      (* The first cycle holds the evaluation cache's first runs, so the
         traced and untraced halves are compared from the second on. *)
      let traced_ms, plain_ms =
        List.partition
          (fun s -> traced s.sm_index)
          (where (fun s -> s.sm_index >= cycle))
      in
      let delta path = int_at path final - int_at path st.warm_stats in
      scale_ms ~f
      [
        metric "serve.submit_ms" "ms" (med (fun s -> s.sm_submit_ms) good);
        metric "serve.wait_ms" "ms" (med (fun s -> s.sm_wait_ms) good);
        metric "serve.refine_ms" "ms" (kind "refine");
        metric "serve.lint_ms" "ms" (kind "lint");
        metric "serve.faults_ms" "ms" (kind "faults");
        metric "serve.explore_ms" "ms" (kind "explore");
        metric "serve.unix_ms" "ms" (conn "unix");
        metric "serve.tcp_ms" "ms" (conn "tcp");
        metric "serve.exec_refine_ms" "ms" (exec "refine");
        metric "serve.exec_lint_ms" "ms" (exec "lint");
        metric "serve.exec_faults_ms" "ms" (exec "faults");
        metric "serve.exec_explore_ms" "ms" (exec "explore");
        metric "serve.overhead_ms" "ms" overhead;
        metric "serve.elab_hit_rate" "ratio"
          (ratio (delta [ "elab_cache"; "hits" ]) (delta [ "elab_cache"; "misses" ]));
        metric "serve.eval_hit_rate" "ratio"
          (ratio (delta [ "eval_cache"; "hits" ]) (delta [ "eval_cache"; "misses" ]));
        metric "serve.elab_hits" "count"
          (float_of_int (int_at [ "elab_cache"; "hits" ] st.warm_stats));
        metric "serve.elab_misses" "count"
          (float_of_int (int_at [ "elab_cache"; "misses" ] st.warm_stats));
        metric "serve.eval_hits" "count"
          (float_of_int (int_at [ "eval_cache"; "hits" ] st.warm_stats));
        metric "serve.eval_misses" "count"
          (float_of_int (int_at [ "eval_cache"; "misses" ] st.warm_stats));
        metric "serve.busy_rejects" "count" (float_of_int busy);
        metric "serve.daemon_cpu_ms" "ms" (cpu /. float_of_int (max 1 ops));
        metric "trace.overhead_pct" "%"
          (if plain_ms = [] then 0.
           else
             100.
             *. (med (fun s -> s.sm_ms) traced_ms
                 /. med (fun s -> s.sm_ms) plain_ms
                -. 1.));
      ]
      @ [ host_metric probe ]
    end
  in
  {
    o_correct = failed = 0 && busy = 0;
    o_attempted = ops;
    o_failed = failed;
    o_metrics = metrics;
  }

let run ~seed ~seconds ~trace ~mrefine =
  match measure ~seed ~seconds ~trace ~mrefine with
  | outcome -> outcome
  | exception e ->
    kill_all ();
    raise e
