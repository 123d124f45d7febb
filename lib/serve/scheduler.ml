(** Job scheduler; see the interface. *)

let journal_meta = Checkpoint.Blob.digest [ "mrefine-serve-journal"; "1" ]

type job = {
  j_id : string;
  j_spec : Protocol.json;
  mutable j_state : Protocol.state;
  mutable j_output : string option;
  mutable j_error : string option;
  mutable j_meta : (string * Protocol.json) list;
  mutable j_replayed : bool;
  mutable j_started : float;  (* 0.0 until the job leaves the queue *)
  j_cancel : bool Atomic.t;
  j_deadline_hit : bool Atomic.t;
  j_deadline_s : float option;
}

(* Recent terminal-job latencies, the signal behind the retry_after_ms
   backpressure hint.  Fixed ring so a long-lived daemon tracks the
   current workload, not its lifetime average. *)
let latency_ring = 32

type t = {
  sc_session : Session.t;
  sc_jobs : int;
  sc_max : int;
  sc_max_pending : int;
  sc_default_deadline : float option;
  sc_journal : Checkpoint.Journal.t option;
  sc_table : (string, job) Hashtbl.t;
  sc_pending : string Queue.t;
  sc_latencies : float array;
  mutable sc_lat_next : int;
  mutable sc_lat_count : int;
  mutable sc_busy_rejects : int;
  mutable sc_full_rejects : int;
  mutable sc_running : int;
  mutable sc_counter : int;
  mutable sc_batches : int;
  mutable sc_stopping : bool;
  sc_mutex : Mutex.t;
  sc_cond : Condition.t;
  mutable sc_dispatcher : Thread.t option;
}

let locked t f =
  Mutex.lock t.sc_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sc_mutex) f

(* --- views -------------------------------------------------------------- *)

type view = {
  v_id : string;
  v_state : Protocol.state;
  v_output : string option;
  v_error : string option;
  v_meta : (string * Protocol.json) list;
  v_replayed : bool;
}

let view_of_job j =
  {
    v_id = j.j_id;
    v_state = j.j_state;
    v_output = j.j_output;
    v_error = j.j_error;
    v_meta = j.j_meta;
    v_replayed = j.j_replayed;
  }

let view_fields v =
  [
    ("id", Protocol.String v.v_id);
    ("state", Protocol.String (Protocol.state_name v.v_state));
  ]
  @ (match v.v_output with
    | Some s -> [ ("output", Protocol.String s) ]
    | None -> [])
  @ (match v.v_error with
    | Some s -> [ ("error", Protocol.String s) ]
    | None -> [])
  @ (match v.v_meta with
    | [] -> []
    | meta -> [ ("meta", Protocol.Obj meta) ])
  @ if v.v_replayed then [ ("replayed", Protocol.Bool true) ] else []

(* --- journal encoding --------------------------------------------------- *)

let spec_key id = "spec/" ^ id
let done_key id = "done/" ^ id
let cancel_key id = "cancel/" ^ id

let outcome_blob j =
  Protocol.to_string
    (Protocol.Obj
       ([ ("state", Protocol.String (Protocol.state_name j.j_state)) ]
       @ (match j.j_output with
         | Some s -> [ ("output", Protocol.String s) ]
         | None -> [])
       @ (match j.j_error with
         | Some s -> [ ("error", Protocol.String s) ]
         | None -> [])
       @ match j.j_meta with
         | [] -> []
         | meta -> [ ("meta", Protocol.Obj meta) ]))

(* [blob] is rendered only when a journal is open: without one, a
   finished job's output is never encoded a second time. *)
let journal_append t ~key blob =
  match t.sc_journal with
  | None -> ()
  | Some jr -> Checkpoint.Journal.append jr ~key (blob ())

(* --- job completion (mutex held) ---------------------------------------- *)

let record_latency t j =
  if j.j_started > 0.0 then begin
    t.sc_latencies.(t.sc_lat_next) <- Unix.gettimeofday () -. j.j_started;
    t.sc_lat_next <- (t.sc_lat_next + 1) mod latency_ring;
    t.sc_lat_count <- min latency_ring (t.sc_lat_count + 1)
  end

(* Mean recent per-job wall clock; a conservative floor stands in until
   the first job completes. *)
let recent_latency_s t =
  if t.sc_lat_count = 0 then 0.05
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.sc_lat_count - 1 do
      sum := !sum +. t.sc_latencies.(i)
    done;
    !sum /. float_of_int t.sc_lat_count
  end

let retry_hint_ms t ~depth =
  let s = float_of_int (max 1 depth) *. recent_latency_s t
          /. float_of_int t.sc_jobs in
  max 25 (min 60_000 (int_of_float (ceil (s *. 1e3))))

let finish t j outcome =
  record_latency t j;
  if j.j_started > 0.0 then t.sc_running <- max 0 (t.sc_running - 1);
  (match outcome with
  | Ok (o : Jobs.outcome) ->
    j.j_state <- Protocol.Done;
    j.j_output <- Some o.Jobs.o_output;
    j.j_meta <- o.Jobs.o_meta
  | Error msg ->
    if Atomic.get j.j_cancel then begin
      j.j_state <- Protocol.Cancelled;
      j.j_error <- Some Jobs.cancelled_message
    end
    else if Atomic.get j.j_deadline_hit && msg = Jobs.cancelled_message
    then begin
      j.j_state <- Protocol.Failed;
      j.j_error <- Some "deadline exceeded"
    end
    else begin
      j.j_state <- Protocol.Failed;
      j.j_error <- Some msg
    end);
  journal_append t ~key:(done_key j.j_id) (fun () -> outcome_blob j);
  Condition.broadcast t.sc_cond

(* --- dispatcher --------------------------------------------------------- *)

let make_poll j =
  let started = Unix.gettimeofday () in
  fun () ->
    if Atomic.get j.j_cancel then true
    else
      match j.j_deadline_s with
      | Some limit when Unix.gettimeofday () -. started > limit ->
        Atomic.set j.j_deadline_hit true;
        true
      | _ -> false

let run_batch t batch =
  t.sc_batches <- t.sc_batches + 1;
  let results =
    Explore.Pool.supervise
      ~jobs:(min t.sc_jobs (max 1 (List.length batch)))
      ~f:(fun j -> Jobs.run ~session:t.sc_session ~poll:(make_poll j) j.j_spec)
      batch
  in
  locked t (fun () ->
      List.iter2
        (fun j result ->
          match result with
          | Ok outcome -> finish t j outcome
          | Error (fl : Explore.Pool.failure) ->
            finish t j
              (Error
                 (Printf.sprintf "crashed after %d attempt(s): %s"
                    fl.Explore.Pool.f_attempts fl.Explore.Pool.f_exn)))
        batch results)

let rec dispatcher_loop t =
  let batch =
    locked t (fun () ->
        while (not t.sc_stopping) && Queue.is_empty t.sc_pending do
          Condition.wait t.sc_cond t.sc_mutex
        done;
        if t.sc_stopping then None
        else begin
          let batch = ref [] in
          Queue.iter
            (fun id ->
              match Hashtbl.find_opt t.sc_table id with
              | Some j when j.j_state = Protocol.Pending ->
                j.j_state <- Protocol.Running;
                j.j_started <- Unix.gettimeofday ();
                t.sc_running <- t.sc_running + 1;
                batch := j :: !batch
              | _ -> () (* cancelled while pending, or aged out *))
            t.sc_pending;
          Queue.clear t.sc_pending;
          Some (List.rev !batch)
        end)
  in
  match batch with
  | None -> ()
  | Some [] -> dispatcher_loop t
  | Some batch ->
    run_batch t batch;
    dispatcher_loop t

(* --- construction and journal replay ------------------------------------ *)

let numeric_suffix id =
  if String.length id > 1 && id.[0] = 'j' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

let replay t =
  match t.sc_journal with
  | None -> ()
  | Some jr ->
    (* Last record wins per key; spec order decides the re-enqueue
       order of in-flight jobs. *)
    let specs = ref [] in
    let dones = Hashtbl.create 64 in
    let cancels = Hashtbl.create 16 in
    List.iter
      (fun (key, blob) ->
        let strip prefix =
          String.sub key (String.length prefix)
            (String.length key - String.length prefix)
        in
        if String.starts_with ~prefix:"spec/" key then begin
          let id = strip "spec/" in
          if not (List.mem_assoc id !specs) then specs := (id, blob) :: !specs
        end
        else if String.starts_with ~prefix:"done/" key then
          Hashtbl.replace dones (strip "done/") blob
        else if String.starts_with ~prefix:"cancel/" key then
          Hashtbl.replace cancels (strip "cancel/") ())
      (Checkpoint.Journal.entries jr);
    List.iter
      (fun (id, spec_blob) ->
        match Protocol.parse spec_blob with
        | Error _ -> () (* an undecodable record costs one job, not the daemon *)
        | Ok spec ->
          let j =
            {
              j_id = id;
              j_spec = spec;
              j_state = Protocol.Pending;
              j_output = None;
              j_error = None;
              j_meta = [];
              j_replayed = true;
              j_started = 0.0;
              j_cancel = Atomic.make false;
              j_deadline_hit = Atomic.make false;
              j_deadline_s = t.sc_default_deadline;
            }
          in
          (match Hashtbl.find_opt dones id with
          | Some blob -> (
            match Protocol.parse blob with
            | Ok outcome ->
              (match Protocol.string_field ~default:"failed" "state" outcome with
              | Ok name -> (
                match Protocol.state_of_name name with
                | Some s when Protocol.terminal s -> j.j_state <- s
                | _ -> j.j_state <- Protocol.Failed)
              | Error _ -> j.j_state <- Protocol.Failed);
              (match Protocol.member "output" outcome with
              | Some (Protocol.String s) -> j.j_output <- Some s
              | _ -> ());
              (match Protocol.member "error" outcome with
              | Some (Protocol.String s) -> j.j_error <- Some s
              | _ -> ());
              (match Protocol.member "meta" outcome with
              | Some (Protocol.Obj fields) -> j.j_meta <- fields
              | _ -> ())
            | Error _ ->
              j.j_state <- Protocol.Failed;
              j.j_error <- Some "journal outcome unreadable")
          | None ->
            if Hashtbl.mem cancels id then begin
              j.j_state <- Protocol.Cancelled;
              j.j_error <- Some Jobs.cancelled_message
            end);
          Hashtbl.replace t.sc_table id j;
          if j.j_state = Protocol.Pending then Queue.add id t.sc_pending;
          (match numeric_suffix id with
          | Some n when n > t.sc_counter -> t.sc_counter <- n
          | _ -> ()))
      (List.rev !specs)

let default_max_jobs = 4096
let default_max_pending = 256

let create ?journal ?(jobs = 1) ?(max_jobs = default_max_jobs)
    ?(max_pending = default_max_pending) ?default_deadline_s session =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs < 1";
  if max_jobs < 1 then invalid_arg "Scheduler.create: max_jobs < 1";
  if max_pending < 1 then invalid_arg "Scheduler.create: max_pending < 1";
  let t =
    {
      sc_session = session;
      sc_jobs = jobs;
      sc_max = max_jobs;
      sc_max_pending = max_pending;
      sc_default_deadline = default_deadline_s;
      sc_journal = journal;
      sc_table = Hashtbl.create 64;
      sc_pending = Queue.create ();
      sc_latencies = Array.make latency_ring 0.0;
      sc_lat_next = 0;
      sc_lat_count = 0;
      sc_busy_rejects = 0;
      sc_full_rejects = 0;
      sc_running = 0;
      sc_counter = 0;
      sc_batches = 0;
      sc_stopping = false;
      sc_mutex = Mutex.create ();
      sc_cond = Condition.create ();
      sc_dispatcher = None;
    }
  in
  replay t;
  t.sc_dispatcher <- Some (Thread.create dispatcher_loop t);
  t

(* --- client operations -------------------------------------------------- *)

let job_deadline t spec =
  match Protocol.float_field "job_deadline" spec with
  | Ok (Some d) -> Some d
  | _ -> t.sc_default_deadline

type reject = {
  rj_reason : string;
  rj_retry_after_ms : int option;
}

let retry_after_ms t =
  locked t (fun () ->
      retry_hint_ms t ~depth:(Queue.length t.sc_pending + t.sc_running))

let submit t ?id spec =
  locked t (fun () ->
      if t.sc_stopping then
        Error
          { rj_reason = "scheduler is shutting down"; rj_retry_after_ms = None }
      else
        match id with
        | Some id when Hashtbl.mem t.sc_table id ->
          Ok (view_of_job (Hashtbl.find t.sc_table id))
        | _ ->
          let depth = Queue.length t.sc_pending + t.sc_running in
          if Hashtbl.length t.sc_table >= t.sc_max then begin
            t.sc_full_rejects <- t.sc_full_rejects + 1;
            Error { rj_reason = "job table full"; rj_retry_after_ms = None }
          end
          else if depth >= t.sc_max_pending then begin
            (* Backpressure before hard rejection: the queue is deep but
               draining, so tell the client when to come back instead of
               turning it away for good. *)
            t.sc_busy_rejects <- t.sc_busy_rejects + 1;
            Error
              {
                rj_reason =
                  Printf.sprintf "server busy: %d jobs queued" depth;
                rj_retry_after_ms = Some (retry_hint_ms t ~depth);
              }
          end
          else begin
            let id =
              match id with
              | Some id -> id
              | None ->
                t.sc_counter <- t.sc_counter + 1;
                Printf.sprintf "j%d" t.sc_counter
            in
            let j =
              {
                j_id = id;
                j_spec = spec;
                j_state = Protocol.Pending;
                j_output = None;
                j_error = None;
                j_meta = [];
                j_replayed = false;
                j_started = 0.0;
                j_cancel = Atomic.make false;
                j_deadline_hit = Atomic.make false;
                j_deadline_s = job_deadline t spec;
              }
            in
            (* Journal before acknowledging: an acked id must survive a
               SIGKILL into the restarted daemon's table. *)
            journal_append t ~key:(spec_key id) (fun () ->
                Protocol.to_string spec);
            Hashtbl.replace t.sc_table id j;
            Queue.add id t.sc_pending;
            Condition.broadcast t.sc_cond;
            Ok (view_of_job j)
          end)

let status t id =
  locked t (fun () -> Option.map view_of_job (Hashtbl.find_opt t.sc_table id))

let result t ~wait id =
  locked t (fun () ->
      match Hashtbl.find_opt t.sc_table id with
      | None -> None
      | Some j ->
        if wait then
          while (not (Protocol.terminal j.j_state)) && not t.sc_stopping do
            Condition.wait t.sc_cond t.sc_mutex
          done;
        Some (view_of_job j))

let cancel t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.sc_table id with
      | None -> Error (Printf.sprintf "unknown job %S" id)
      | Some j ->
        (match j.j_state with
        | Protocol.Pending ->
          j.j_state <- Protocol.Cancelled;
          j.j_error <- Some Jobs.cancelled_message;
          journal_append t ~key:(cancel_key id) (fun () -> "");
          journal_append t ~key:(done_key id) (fun () -> outcome_blob j);
          Condition.broadcast t.sc_cond
        | Protocol.Running ->
          Atomic.set j.j_cancel true;
          journal_append t ~key:(cancel_key id) (fun () -> "")
        | Protocol.Done | Protocol.Failed | Protocol.Cancelled -> ());
        Ok (view_of_job j))

let stats t =
  let session_stats = Session.stats t.sc_session in
  let sim = Sim.Engine.sessions_stats () in
  let cache = Session.cache t.sc_session in
  let cache_stats = Explore.Cache.stats cache in
  locked t (fun () ->
      let count s =
        Hashtbl.fold
          (fun _ j acc -> if j.j_state = s then acc + 1 else acc)
          t.sc_table 0
      in
      [
        ("jobs", Protocol.Int (Hashtbl.length t.sc_table));
        ("max_jobs", Protocol.Int t.sc_max);
        ("max_pending", Protocol.Int t.sc_max_pending);
        ("pending", Protocol.Int (count Protocol.Pending));
        ("running", Protocol.Int (count Protocol.Running));
        ("done", Protocol.Int (count Protocol.Done));
        ("failed", Protocol.Int (count Protocol.Failed));
        ("cancelled", Protocol.Int (count Protocol.Cancelled));
        ("batches", Protocol.Int t.sc_batches);
        ("busy_rejects", Protocol.Int t.sc_busy_rejects);
        ("full_rejects", Protocol.Int t.sc_full_rejects);
        ( "recent_job_ms",
          Protocol.Float (1e3 *. recent_latency_s t) );
        ( "elab_cache",
          Protocol.Obj
            [
              ("hits", Protocol.Int session_stats.Session.st_elab_hits);
              ("misses", Protocol.Int session_stats.Session.st_elab_misses);
              ("entries", Protocol.Int session_stats.Session.st_elab_entries);
            ] );
        ( "refined_cache",
          Protocol.Obj
            [
              ("hits", Protocol.Int session_stats.Session.st_refined_hits);
              ("misses", Protocol.Int session_stats.Session.st_refined_misses);
              ("entries", Protocol.Int session_stats.Session.st_refined_entries);
            ] );
        ( "sim_sessions",
          Protocol.Obj
            [
              ("golden_hits", Protocol.Int sim.Sim.Engine.se_golden_hits);
              ("golden_misses", Protocol.Int sim.Sim.Engine.se_golden_misses);
              ("sessions", Protocol.Int sim.Sim.Engine.se_sessions);
              ("checkpoints", Protocol.Int sim.Sim.Engine.se_checkpoints);
            ] );
        ( "eval_cache",
          Protocol.Obj
            [
              ("hits", Protocol.Int cache_stats.Explore.Cache.hits);
              ("misses", Protocol.Int cache_stats.Explore.Cache.misses);
              ("resident_entries", Protocol.Int (Explore.Cache.resident_entries cache));
              ("resident_bytes", Protocol.Int (Explore.Cache.resident_bytes cache));
              ("evictions", Protocol.Int (Explore.Cache.evictions cache));
            ] );
      ])

let shutdown t =
  let dispatcher =
    locked t (fun () ->
        if t.sc_stopping then None
        else begin
          t.sc_stopping <- true;
          Condition.broadcast t.sc_cond;
          let d = t.sc_dispatcher in
          t.sc_dispatcher <- None;
          d
        end)
  in
  Option.iter Thread.join dispatcher
