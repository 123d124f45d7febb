(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark's own code: name, start, end, parent span and op id, plus the
   minor words the call allocated.  Recording is off unless [enabled] is
   set, and then costs one record and two clock reads per span.  At exit
   the spans are written as Chrome trace-event JSON. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_op : int;
  sp_parent : int;  (** -1 for a root span *)
  sp_t0 : float;
  sp_t1 : float;
  sp_words : float;  (** minor words allocated inside the span *)
}

let enabled = ref false
let current_op = ref (-1)
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let now = Unix.gettimeofday

(* [with_span name f] runs [f], recording a span around it when enabled.
   Exceptions propagate; the span is still recorded. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let finish t0 w0 =
      let w1 = Gc.minor_words () in
      let t1 = now () in
      stack := List.tl !stack;
      recorded :=
        {
          sp_id = id;
          sp_name = name;
          sp_op = !current_op;
          sp_parent = parent;
          sp_t0 = t0;
          sp_t1 = t1;
          sp_words = w1 -. w0;
        }
        :: !recorded
    in
    let t0 = now () in
    let w0 = Gc.minor_words () in
    match f () with
    | v ->
      finish t0 w0;
      v
    | exception e ->
      finish t0 w0;
      raise e
  end

(* Record an already-measured interval, e.g. a client-side round trip
   whose end is observed by an event loop rather than a call return. *)
let add ?(parent = -1) ~op name t0 t1 =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    recorded :=
      {
        sp_id = id;
        sp_name = name;
        sp_op = op;
        sp_parent = parent;
        sp_t0 = t0;
        sp_t1 = t1;
        sp_words = 0.;
      }
      :: !recorded;
    id
  end
  else -1

let all () = List.rev !recorded
let duration s = s.sp_t1 -. s.sp_t0

(* Self time: a span's duration minus the part its children cover.
   Children of one parent never overlap (each workload records from a
   single thread), so their durations simply add up. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child_time s.sp_parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        duration s
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_id) ))
    spans

let write_chrome path spans =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\
         \"words\":%.0f}}"
        s.sp_name (s.sp_t0 *. 1e6) (duration s *. 1e6) s.sp_id s.sp_parent
        s.sp_op s.sp_words)
    spans;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
