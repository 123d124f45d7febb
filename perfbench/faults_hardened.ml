(* Workload faults-hardened: the simulation kernel's warm path.

   The inputs are the hardened refinements of the medical system's three
   designs under the four models.  One op is one four-seed fault-injection
   campaign of one fault class against one of them, its base seed derived
   from the workload seed: a golden run and four faulty runs of the same
   refined program, so the kernel's warm session and VM execution dominate
   while refine and lint do no timed work.  The cycle takes each design in
   turn through 18 campaigns — four rounds of the four light classes, then
   delay-handshake and stuck-line — so most ops find the design's
   simulation session warm.

   Why one class per op: a faulty run that ends in a watchdog deadlock
   runs ~30k deltas against ~1.2k for the others; stuck-line faults cause
   most of them and delay-handshake faults a few.  A campaign over all
   classes therefore costs either ~10k or ~40k deltas, and the share of
   each mode moved with the seed — the median sat in the gap between them.
   So each of these two rare classes is one op in 18, and both percentiles
   fall inside the four light classes; the rare classes' work still shows
   in ops_per_s.

   Every op's classifications must equal those of the polling kernel
   ({!Sim.Reference.run}) on the same seeds, computed once per campaign
   after set-up and outside the timed phase.  Warm-up ops run before the
   oracle exists and are checked against it when it is computed. *)

open Harness

let campaign_seeds = 4
let classes = Array.of_list Faults.Fault.all_classes
let warmup_ops = 12

type counts = {
  mutable runs : int;
  mutable deltas : int;
  mutable steps : int;
  mutable rounds : int;
  mutable wakes : int;
}

type state = {
  designs : (string * Core.Refiner.t) array;
  configs : Faults.Campaign.config array;  (** per fault class *)
  mutable expected : (Faults.Campaign.outcome list, string) result array option;
      (** polling-kernel oracle *)
  warm : Faults.Campaign.outcome list option array;  (** the warm-up's outcomes *)
  counts : counts array;  (** per cycle position, from the last op there *)
  robustness : float array;
}

let designs () =
  let options = { Core.Refiner.default_options with harden = true } in
  Array.of_list
    (List.concat_map
       (fun d ->
         List.map
           (fun m ->
             ( d.Workloads.Designs.d_name ^ "/" ^ Core.Model.name m,
               Core.Refiner.refine ~options Workloads.Medical.spec
                 Workloads.Medical.graph d.Workloads.Designs.d_partition m ))
           Core.Model.all)
       Workloads.Designs.all)

let outcomes report =
  List.map (fun r -> r.Faults.Campaign.run_outcome) report.Faults.Campaign.rp_runs

let reference_simulate ~config ~hooks ?ordering p =
  Sim.Reference.run ~config ~hooks ?ordering p

(* The kernel call the campaign makes, wrapped: the first simulation of a
   campaign compiles and elaborates the design, the rest rewind a warm
   session.  Scheduler counters accumulate into [c]. *)
let simulate c ~config ~hooks ?ordering p =
  let name = if c.runs = 0 then "sim.first_run" else "sim.run" in
  Spans.with_span name (fun () ->
      let r, st = Sim.Engine.run_stats ~config ~hooks ?ordering p in
      c.runs <- c.runs + 1;
      c.deltas <- c.deltas + r.Sim.Engine.r_deltas;
      c.steps <- c.steps + r.Sim.Engine.r_steps;
      c.rounds <- c.rounds + st.Sim.Engine.st_rounds;
      c.wakes <- c.wakes + st.Sim.Engine.st_wakes;
      r)

(* The classes whose draws often end in a long watchdog deadlock. *)
let rare = [ Faults.Fault.Delay_handshake; Faults.Fault.Stuck_line ]

(* The cycle, as (design, class) index pairs: per design, four rounds of
   the four other classes, then one campaign of each rare class. *)
let schedule =
  let light = List.filter (fun c -> not (List.mem c rare)) (Array.to_list classes) in
  let index c = Option.get (Array.find_index (( = ) c) classes) in
  let block = List.map index (List.concat (List.init 4 (fun _ -> light)) @ rare) in
  Array.of_list
    (List.concat_map (fun d -> List.map (fun c -> (d, c)) block)
       (List.init (List.length Workloads.Designs.all * List.length Core.Model.all) Fun.id))

let cycle = Array.length schedule

(* Op [i]'s distinct campaign [k], its design and its configuration. *)
let campaign st i =
  let d, c = schedule.(i mod cycle) in
  ((d * Array.length classes) + c, st.designs.(d), st.configs.(c))

let op st i =
  let k, (name, r), config = campaign st i in
  let c = { runs = 0; deltas = 0; steps = 0; rounds = 0; wakes = 0 } in
  let report =
    Spans.with_span "faults.campaign" (fun () ->
        Faults.Campaign.run ~config ~simulate:(simulate c) r)
  in
  (match st.expected with
  | Some expected when expected.(k) <> Ok (outcomes report) ->
    failwith (name ^ ": classifications differ from the polling kernel")
  | Some _ -> ()
  | None -> st.warm.(k) <- Some (outcomes report));
  st.counts.(k) <- c;
  st.robustness.(k) <- report.Faults.Campaign.rp_robustness

let setup seed () =
  let designs = designs () in
  let configs =
    Array.map
      (fun cls ->
        {
          Faults.Campaign.default_config with
          cf_seeds = campaign_seeds;
          cf_base_seed = 1 + (seed * 7_919 mod 1_000_003);
          cf_classes = [ cls ];
        })
      classes
  in
  let n = Array.length designs * Array.length classes in
  let st =
    {
      designs;
      configs;
      expected = None;
      warm = Array.make n None;
      counts =
        Array.init n (fun _ ->
            { runs = 0; deltas = 0; steps = 0; rounds = 0; wakes = 0 });
      robustness = Array.make n 0.;
    }
  in
  (* A warm-up op that raises is not fatal here: it fails again, and is
     counted, in the timed phase. *)
  for i = 0 to warmup_ops - 1 do
    try op st (i * 7) with _ -> ()
  done;
  st

let oracle st =
  let expected =
    Array.init (Array.length st.counts) (fun k ->
        let r = snd st.designs.(k / Array.length classes) in
        let config = st.configs.(k mod Array.length classes) in
        match Faults.Campaign.run ~config ~simulate:reference_simulate r with
        | report -> Ok (outcomes report)
        | exception e -> Error (Printexc.to_string e))
  in
  Array.iteri
    (fun k warm ->
      match warm with
      | Some w when expected.(k) <> Ok w ->
        failwith
          (fst st.designs.(k / Array.length classes)
          ^ ": warm-up classifications differ from the polling kernel")
      | _ -> ())
    st.warm;
  st.expected <- Some expected

let layers st spans _samples =
  let selfs = Spans.self_times spans in
  let ms = self_ms selfs in
  let per_op f =
    mean (Array.to_list (Array.map (fun c -> float_of_int (f c)) st.counts))
  in
  [
    metric "faults.campaign_ms" "ms"
      (median
         (List.map
            (fun s -> Spans.duration s *. 1e3)
            (named "faults.campaign" spans)));
    metric "faults.self_ms" "ms" (ms "faults.campaign");
    metric "sim.first_run_ms" "ms" (ms "sim.first_run");
    metric "sim.run_ms" "ms" (ms "sim.run");
    metric "sim.run_kw" "kword" (window_kw ~cycle spans "sim.run");
    metric "sim.runs" "count" (per_op (fun c -> c.runs));
    metric "sim.deltas" "count" (per_op (fun c -> c.deltas));
    metric "sim.steps" "count" (per_op (fun c -> c.steps));
    metric "sim.rounds" "count" (per_op (fun c -> c.rounds));
    metric "sim.wakes" "count" (per_op (fun c -> c.wakes));
    metric "faults.robustness" "ratio" (mean (Array.to_list st.robustness));
  ]

let workload ~seed =
  {
    w_setup = setup seed;
    w_oracle = oracle;
    w_teardown = ignore;
    w_cycle = (fun _ -> cycle);
    w_class = (fun _ i -> Faults.Fault.cls_name classes.(snd schedule.(i mod cycle)));
    w_op = op;
    w_peak_rss_mb = (fun _ -> peak_rss_mb "self");
    w_layers = layers;
  }
