(* The closed-loop driver shared by the workloads, and the result line.

   One op runs at a time.  The run sets up [setup_repeats] times (the last
   set-up is kept and the median is reported as [setup_s]), then times ops
   for [seconds] wall seconds and at least [min_ops] ops.  Ops walk a fixed,
   seed-determined cycle.  In a traced run the first cycle is traced whole:
   it is the fixed window the exact counters come from.  Later ops
   alternate untraced and traced, and the ratio of the two halves' median
   times is the tracing overhead. *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }
let now = Unix.gettimeofday

let quantile = Stats.quantile
let median = Stats.median
let mean = Stats.mean

(* VmHWM of a process, in MiB, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf
        (String.sub line 6 (String.length line - 6))
        " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type sample = {
  s_index : int;
  s_class : string;
  s_ms : float;
  s_ok : bool;
  s_traced : bool;
}

type 'st workload = {
  w_setup : unit -> 'st;  (** generate inputs, prepare, warm up *)
  w_oracle : 'st -> unit;
      (** compute reference outputs once, after set-up and untimed *)
  w_teardown : 'st -> unit;
  w_cycle : 'st -> int;  (** ops in one cycle of the op sequence *)
  w_class : 'st -> int -> string;  (** op class, for the latency table *)
  w_op : 'st -> int -> unit;  (** one op; raises on a wrong output *)
  w_peak_rss_mb : 'st -> float;
  w_layers : 'st -> Spans.span list -> sample list -> metric list;
      (** per-layer metrics of a traced run *)
}

type outcome = {
  o_correct : bool;
  o_attempted : int;
  o_failed : int;
  o_metrics : metric list;
}

(* In a traced run the first cycle is traced whole; after it, ops alternate
   traced and untraced, and each cycle position switches between cycles,
   so both halves see the same ops under the same drift. *)
let traced_op ~cycle i = i < cycle || ((i / cycle) + i) mod 2 = 0

let describe_failure i e =
  Printf.eprintf "op %d failed: %s\n%!" i (Printexc.to_string e)

(* Per-class latency table on stderr: the evidence that p50 and p90 each
   fall inside one op class. *)
let print_classes ~f samples ~p50 ~p90 =
  let samples = List.map (fun s -> { s with s_ms = s.s_ms *. f }) samples in
  let p50 = p50 *. f and p90 = p90 *. f in
  Printf.eprintf "host probe factor %.4f (times below are at nominal speed)\n" f;
  let classes =
    List.sort_uniq compare (List.map (fun s -> s.s_class) samples)
  in
  let total = List.length samples in
  Printf.eprintf "%-16s %6s %6s %9s %9s %9s %9s\n" "class" "ops" "share"
    "min_ms" "p50_ms" "p90_ms" "max_ms";
  List.iter
    (fun c ->
      let xs =
        List.filter_map
          (fun s -> if s.s_class = c then Some s.s_ms else None)
          samples
      in
      Printf.eprintf "%-16s %6d %5.1f%% %9.3f %9.3f %9.3f %9.3f\n" c
        (List.length xs)
        (100. *. float_of_int (List.length xs) /. float_of_int (max 1 total))
        (List.fold_left min infinity xs)
        (median xs) (quantile 0.9 xs)
        (List.fold_left max neg_infinity xs))
    classes;
  Printf.eprintf "%-16s %6d %6s %9s %9.3f %9.3f\n%!" "all" total "" "" p50 p90

(* End-to-end metrics at nominal host speed: times are multiplied by the
   probe factor [f], rates divided by it. *)
let end_to_end ~f ~setup ~ops ~busy_s ~latencies ~rss =
  [
    metric "setup_s" "s" (setup *. f);
    metric "ops_per_s" "1/s" (float_of_int ops /. busy_s /. f);
    metric "p50_ms" "ms" (median latencies *. f);
    metric "p90_ms" "ms" (quantile 0.9 latencies *. f);
    metric "peak_rss_mb" "MiB" rss;
  ]

(* Per-layer times are scaled like the end-to-end ones; counts, ratios and
   sizes are not. *)
let scale_ms ~f ms =
  List.map (fun m -> if m.m_unit = "ms" then { m with m_value = m.m_value *. f } else m) ms

let host_metric probe = metric "host.probe_ms" "ms" (Probe.probe_ms probe)

let run ~seconds ~min_ops ~setup_repeats ~trace w =
  let probe = Probe.start () in
  let setups =
    List.init setup_repeats (fun _ ->
        ignore (Probe.sample probe);
        let t0 = now () in
        let st = w.w_setup () in
        (now () -. t0, st))
  in
  List.iteri
    (fun k (_, st) -> if k < setup_repeats - 1 then w.w_teardown st)
    setups;
  let setup_s = median (List.map fst setups) in
  let st = snd (List.nth setups (setup_repeats - 1)) in
  let t_oracle = now () in
  w.w_oracle st;
  Printf.eprintf "set-up %.3f s (median of %d), reference oracle %.3f s\n%!"
    setup_s setup_repeats (now () -. t_oracle);
  Gc.compact ();
  let cycle = w.w_cycle st in
  let samples = ref [] in
  let failed = ref 0 in
  let probing = ref 0. in
  (* Each op's time relative to the probe run just before it, so that the
     tracing overhead compares cycles free of the host's drift. *)
  let relative = ref [] in
  let t_start = now () in
  let i = ref 0 in
  while now () -. t_start < seconds || !i < min_ops do
    probing := !probing +. Probe.sample probe;
    let traced = trace && traced_op ~cycle !i in
    Spans.enabled := traced;
    Spans.current_op := !i;
    let t0 = now () in
    let ok =
      match Spans.with_span "op" (fun () -> w.w_op st !i) with
      | () -> true
      | exception e ->
        describe_failure !i e;
        false
    in
    let ms = (now () -. t0) *. 1e3 in
    Spans.enabled := false;
    if not ok then incr failed
    else if !i >= cycle then relative := (traced, ms /. Probe.last probe) :: !relative;
    samples :=
      { s_index = !i; s_class = w.w_class st !i; s_ms = ms; s_ok = ok;
        s_traced = traced }
      :: !samples;
    incr i
  done;
  let busy_s = now () -. t_start -. !probing in
  let f = Probe.factor probe in
  let samples = List.rev !samples in
  let ok_ms = List.filter_map (fun s -> if s.s_ok then Some s.s_ms else None) in
  let rss = w.w_peak_rss_mb st in
  let metrics =
    if not trace then begin
      let lat = ok_ms samples in
      print_classes ~f
        (List.filter (fun s -> s.s_ok) samples)
        ~p50:(median lat) ~p90:(quantile 0.9 lat);
      end_to_end ~f ~setup:setup_s ~ops:!i ~busy_s ~latencies:lat ~rss
    end
    else begin
      let traced, plain = List.partition fst !relative in
      let overhead =
        match (traced, plain) with
        | [], _ | _, [] -> 0.
        | t, p -> 100. *. ((median (List.map snd t) /. median (List.map snd p)) -. 1.)
      in
      scale_ms ~f (w.w_layers st (Spans.all ()) samples)
      @ [ metric "trace.overhead_pct" "%" overhead; host_metric probe ]
    end
  in
  w.w_teardown st;
  {
    o_correct = !failed = 0;
    o_attempted = !i;
    o_failed = !failed;
    o_metrics = metrics;
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_outcome o =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.m_value) m.m_unit)
      o.o_metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.o_correct o.o_attempted o.o_failed
    (String.concat ", " metrics)

(* --- per-layer aggregation helpers ------------------------------------ *)

(* Spans of the counter window: the first cycle, traced whole. *)
let in_window ~cycle s = s.Spans.sp_op >= 0 && s.Spans.sp_op < cycle

let named name spans = List.filter (fun s -> s.Spans.sp_name = name) spans

(* Median self time, in ms, of every span with this name. *)
let self_ms selfs name =
  median
    (List.filter_map
       (fun (s, self) ->
         if s.Spans.sp_name = name then Some (self *. 1e3) else None)
       selfs)

(* Median kilowords allocated per span with this name, over the window. *)
let window_kw ~cycle spans name =
  median
    (List.filter_map
       (fun s ->
         if s.Spans.sp_name = name && in_window ~cycle s then
           Some (s.Spans.sp_words /. 1e3)
         else None)
       spans)
