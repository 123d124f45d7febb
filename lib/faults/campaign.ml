(** Deterministic, seeded fault-injection campaigns against a refined
    design.  A campaign first performs one golden (fault-free) run to
    learn the design's commit schedule and reference behavior, then for
    every seed and every fault class injects one randomly drawn (but
    seed-reproducible) fault and classifies the outcome against the
    golden run:

    - {!Survived} — same observable behavior, no recovery action needed;
    - {!Detected_recovered} — same observable behavior, reached through
      watchdog retries or TMR repairs (reserved-marker count grew);
    - {!Deadlock} — the design hung or stopped: deliberate [WDG_ABORT]
      fail-stops of the hardened protocol, and runs halted by an
      evaluation error (reported with 0 deltas);
    - {!Silent_corruption} — the design completed but its filtered trace
      or final memory state differs from the golden run: the worst case;
    - {!Step_limit} — the budget ran out before an outcome was reached.

    The classification filters the reserved recovery markers
    ({!Core.Protocol.reserved_tag_prefixes}) out of both traces and
    majority-votes TMR-shadowed storage before comparing, so a hardened
    design is judged on its observable behavior, not its bookkeeping. *)

open Spec

type outcome =
  | Survived
  | Detected_recovered
  | Deadlock
  | Silent_corruption
  | Step_limit
  | Timed_out

let outcome_name = function
  | Survived -> "survived"
  | Detected_recovered -> "recovered"
  | Deadlock -> "deadlock"
  | Silent_corruption -> "silent-corruption"
  | Step_limit -> "step-limit"
  | Timed_out -> "timed-out"

let all_outcomes =
  [
    Survived;
    Detected_recovered;
    Deadlock;
    Silent_corruption;
    Step_limit;
    Timed_out;
  ]

type run = {
  run_seed : int;
  run_class : Fault.cls;
  run_faults : Fault.spec list;
  run_outcome : outcome;
  run_deltas : int;
}

type report = {
  rp_design : string;  (** refined program name *)
  rp_hardened : bool;
  rp_seeds : int;
  rp_runs : run list;
  rp_robustness : float;
      (** fraction of runs classified survived or recovered *)
}

type config = {
  cf_seeds : int;  (** number of seeded rounds, one fault per class each *)
  cf_base_seed : int;
  cf_classes : Fault.cls list;
  cf_sim : Sim.Engine.config;  (** budget of the golden run *)
  cf_deadline_s : float option;
      (** wall-clock budget of the whole campaign: once exceeded, the
          running simulation is cancelled, classified {!Timed_out}, and
          the campaign stops *)
  cf_poll : (unit -> bool) option;
      (** external cooperative cancellation, polled with the deadline *)
  cf_ordering : Sim.Memord.policy;
      (** port-ordering semantics of the design's multi-port memories:
          every run of the campaign — golden and faulty alike — executes
          under this policy with the same scheduler seed, so a hardened
          design is judged on whether its observable behavior stays
          interleaving-independent *)
}

let default_config =
  {
    cf_seeds = 8;
    cf_base_seed = 1;
    cf_classes = Fault.all_classes;
    cf_sim = Sim.Engine.default_config;
    cf_deadline_s = None;
    cf_poll = None;
    cf_ordering = Sim.Memord.Sc;
  }

(* Port ownership under a weak ordering: every line of a refined bus
   belongs to the port named by its bus label. *)
let port_of_buses (buses : Core.Refiner.bus_inst list) name =
  List.find_map
    (fun (bi : Core.Refiner.bus_inst) ->
      let bs = bi.Core.Refiner.bi_signals in
      if
        List.exists (String.equal name)
          [
            bs.Core.Protocol.bs_start; bs.Core.Protocol.bs_done;
            bs.Core.Protocol.bs_rd; bs.Core.Protocol.bs_wr;
            bs.Core.Protocol.bs_addr; bs.Core.Protocol.bs_data;
          ]
      then Some bs.Core.Protocol.bs_label
      else None)
    buses

(* --- target enumeration ------------------------------------------------ *)

(** What a campaign can aim at, enumerated from the refined design. *)
type targets = {
  tg_handshakes : string list;
      (** [B_start] / [B_done] control signals and bus [start] / [done]
          lines with at least one golden commit *)
  tg_lines : (string * int) list;
      (** stuck-at candidates: bus control / address / data lines with
          their width (0 = boolean) *)
  tg_storage : (string * int) list;
      (** memory storage scalars with their width *)
  tg_acks : string list;  (** arbiter grant signals *)
}

let has_suffix suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

let has_prefix prefix s =
  let lp = String.length prefix and l = String.length s in
  l >= lp && String.equal (String.sub s 0 lp) prefix

let rec find_behavior name (b : Ast.behavior) =
  if String.equal b.Ast.b_name name then Some b
  else List.find_map (find_behavior name) (Behavior.children b)

(* Storage of a generated memory: the declarations of the memory
   behavior's root node (a storage leaf or the shared [par] vars),
   excluding TMR shadows.  Scalars only — array flips would need indexed
   probe access. *)
let storage_of (p : Ast.program) mem_name =
  match find_behavior mem_name p.Ast.p_top with
  | None -> []
  | Some b ->
    List.filter_map
      (fun (v : Ast.var_decl) ->
        if
          has_suffix "_r1" v.Ast.v_name
          || has_suffix "_r2" v.Ast.v_name
          || has_prefix "wdg_" v.Ast.v_name
        then None
        else
          match v.Ast.v_ty with
          | Ast.TBool -> Some (v.Ast.v_name, 1)
          | Ast.TInt w -> Some (v.Ast.v_name, w)
          | Ast.TArray _ -> None)
      b.Ast.b_vars

let enumerate (r : Core.Refiner.t) occurrences =
  let committed s = Hashtbl.mem occurrences s in
  let bus_handshakes =
    List.concat_map
      (fun (bi : Core.Refiner.bus_inst) ->
        let bs = bi.Core.Refiner.bi_signals in
        [ bs.Core.Protocol.bs_start; bs.Core.Protocol.bs_done ])
      r.Core.Refiner.rf_buses
  in
  let ctrl_handshakes =
    List.filter_map
      (fun (s : Ast.sig_decl) ->
        if
          (has_suffix "_start" s.Ast.s_name || has_suffix "_done" s.Ast.s_name)
          && not (List.mem s.Ast.s_name bus_handshakes)
        then Some s.Ast.s_name
        else None)
      r.Core.Refiner.rf_program.Ast.p_signals
  in
  let lines =
    List.concat_map
      (fun (bi : Core.Refiner.bus_inst) ->
        let bs = bi.Core.Refiner.bi_signals in
        [
          (bs.Core.Protocol.bs_start, 0);
          (bs.Core.Protocol.bs_done, 0);
          (bs.Core.Protocol.bs_addr, bs.Core.Protocol.bs_addr_width);
          (bs.Core.Protocol.bs_data, bs.Core.Protocol.bs_data_width);
        ])
      r.Core.Refiner.rf_buses
  in
  let storage =
    List.concat_map
      (storage_of r.Core.Refiner.rf_program)
      r.Core.Refiner.rf_memories
  in
  let acks =
    List.concat_map
      (fun (bi : Core.Refiner.bus_inst) ->
        match bi.Core.Refiner.bi_arbiter with
        | None -> []
        | Some arb ->
          List.map
            (fun (rq : Core.Arbiter.requester) -> rq.Core.Arbiter.rq_ack)
            arb.Core.Arbiter.arb_requesters)
      r.Core.Refiner.rf_buses
  in
  {
    tg_handshakes =
      List.filter committed (bus_handshakes @ ctrl_handshakes);
    tg_lines = List.filter (fun (s, _) -> committed s) lines;
    tg_storage = storage;
    tg_acks = List.filter committed acks;
  }

(* --- fault drawing ----------------------------------------------------- *)

let count occurrences s =
  Option.value ~default:0 (Hashtbl.find_opt occurrences s)

let draw_flip rng ~golden_deltas ~storage =
  let name, width = Partitioning.Rng.choose rng storage in
  Fault.Flip_bit
    {
      fl_var = name;
      fl_bit = Partitioning.Rng.int rng (max 1 width);
      fl_delta = 1 + Partitioning.Rng.int rng (max 1 golden_deltas);
    }

(** Draw the fault list of one run.  [None] when the design offers no
    target of this class (e.g. no arbiter to starve). *)
let draw rng ~targets ~occurrences ~golden_deltas cls =
  match cls with
  | Fault.Bit_flip ->
    if targets.tg_storage = [] then None
    else Some [ draw_flip rng ~golden_deltas ~storage:targets.tg_storage ]
  | Fault.Multi_bit_flip ->
    if targets.tg_storage = [] then None
    else
      let n = 2 + Partitioning.Rng.int rng 2 in
      Some
        (List.init n (fun _ ->
             draw_flip rng ~golden_deltas ~storage:targets.tg_storage))
  | Fault.Drop_handshake ->
    if targets.tg_handshakes = [] then None
    else
      let s = Partitioning.Rng.choose rng targets.tg_handshakes in
      Some
        [
          Fault.Drop_update
            {
              du_signal = s;
              du_occurrence =
                1 + Partitioning.Rng.int rng (max 1 (count occurrences s));
            };
        ]
  | Fault.Delay_handshake ->
    if targets.tg_handshakes = [] then None
    else
      let s = Partitioning.Rng.choose rng targets.tg_handshakes in
      Some
        [
          Fault.Delay_update
            {
              dl_signal = s;
              dl_occurrence =
                1 + Partitioning.Rng.int rng (max 1 (count occurrences s));
              dl_deltas = 2 + Partitioning.Rng.int rng 40;
            };
        ]
  | Fault.Stuck_line ->
    if targets.tg_lines = [] then None
    else
      let s, width = Partitioning.Rng.choose rng targets.tg_lines in
      let value =
        if width = 0 then Ast.VBool (Partitioning.Rng.bool rng)
        else Ast.VInt (Partitioning.Rng.int rng (1 lsl min width 8))
      in
      Some
        [
          Fault.Stuck_at
            {
              st_signal = s;
              st_value = value;
              st_delta = Partitioning.Rng.int rng (max 1 golden_deltas);
            };
        ]
  | Fault.Grant_starvation ->
    if targets.tg_acks = [] then None
    else
      let s = Partitioning.Rng.choose rng targets.tg_acks in
      Some
        [
          Fault.Delay_update
            {
              dl_signal = s;
              dl_occurrence =
                1 + Partitioning.Rng.int rng (max 1 (count occurrences s));
              dl_deltas = 50 + Partitioning.Rng.int rng 200;
            };
        ]

(* --- classification ---------------------------------------------------- *)

let reserved tag =
  List.exists
    (fun p -> has_prefix p tag)
    Core.Protocol.reserved_tag_prefixes

let filter_trace events =
  List.filter (fun e -> not (reserved e.Sim.Trace.ev_tag)) events

let marker_count events =
  List.length (List.filter (fun e -> reserved e.Sim.Trace.ev_tag) events)

(* The effective final value of a storage scalar: TMR majority when the
   shadows exist (the vote a hardened memory would apply on its next
   read), the raw value otherwise. *)
let voted finals name =
  match List.assoc_opt name finals with
  | None -> None
  | Some primary ->
    begin match
      (List.assoc_opt (name ^ "_r1") finals, List.assoc_opt (name ^ "_r2") finals)
    with
    | Some a, Some b ->
      Some (if primary = a || primary = b then primary else a)
    | _ -> Some primary
    end

(* The golden side of a classification — the filtered trace's per-tag
   projections (sorted, as {!Sim.Trace.projection_equivalent} compares
   them), the marker count and the voted storage values — prepared once
   per campaign rather than once per faulty run. *)
type golden_side = {
  gs_projections : (string * Ast.value list) list;
  gs_markers : int;
  gs_storage : (string * Ast.value option) list;
}

let sorted_projections events =
  List.sort compare (Sim.Trace.projections (filter_trace events))

let prepare ~storage (golden : Sim.Engine.result) =
  {
    gs_projections = sorted_projections golden.Sim.Engine.r_trace;
    gs_markers = marker_count golden.Sim.Engine.r_trace;
    gs_storage =
      List.map
        (fun (name, _) -> (name, voted golden.Sim.Engine.r_final name))
        storage;
  }

let classify_against gs (faulty : Sim.Engine.result) =
  match faulty.Sim.Engine.r_outcome with
  | Sim.Engine.Deadlock _ -> Deadlock
  | Sim.Engine.Step_limit -> Step_limit
  | Sim.Engine.Cancelled -> Timed_out
  | Sim.Engine.Completed ->
    let trace_ok =
      sorted_projections faulty.Sim.Engine.r_trace = gs.gs_projections
    in
    let storage_ok =
      List.for_all
        (fun (name, v) -> v = voted faulty.Sim.Engine.r_final name)
        gs.gs_storage
    in
    if not (trace_ok && storage_ok) then Silent_corruption
    else if marker_count faulty.Sim.Engine.r_trace > gs.gs_markers then
      Detected_recovered
    else Survived

let classify ~storage ~golden faulty =
  classify_against (prepare ~storage golden) faulty

(* --- the campaign ------------------------------------------------------ *)

exception Campaign_error of string

(* The default simulator; the differential tests and the faults-hardened
   benchmark pass {!Sim.Reference.run} instead to check the event-driven
   kernel against the polling one on an identical campaign (both kernels
   share result and hook types through {!Sim.Runtime}, so classifications
   are directly comparable). *)
let engine_simulate ~config ~hooks ?ordering p =
  Sim.Engine.run ~config ~hooks ?ordering p

(* The journal meta binds a checkpoint journal to everything that
   determines a run's outcome: the refined program text and the campaign
   configuration.  Resuming against a different design or configuration
   is refused by {!Checkpoint.Journal.open_}. *)
let journal_meta config (r : Core.Refiner.t) =
  Checkpoint.Blob.digest
    [
      "faults-campaign-1";
      Spec.Printer.program_to_string r.Core.Refiner.rf_program;
      string_of_int config.cf_seeds;
      string_of_int config.cf_base_seed;
      String.concat "," (List.map Fault.cls_name config.cf_classes);
      string_of_int config.cf_sim.Sim.Engine.max_steps;
      string_of_int config.cf_sim.Sim.Engine.max_deltas;
      Sim.Memord.policy_to_string config.cf_ordering;
    ]

let run ?(config = default_config) ?(simulate = engine_simulate) ?journal
    (r : Core.Refiner.t) =
  let program = r.Core.Refiner.rf_program in
  let started = Unix.gettimeofday () in
  let cancelled () =
    (match config.cf_poll with Some f -> f () | None -> false)
    || (match config.cf_deadline_s with
       | Some d -> Unix.gettimeofday () -. started > d
       | None -> false)
  in
  let with_poll hooks =
    if config.cf_deadline_s = None && config.cf_poll = None then hooks
    else { hooks with Sim.Engine.h_poll = Some cancelled }
  in
  (* A fresh ordering layer per simulation: same policy, same scheduler
     seed for every run of the campaign, so a faulty run's fault-free
     prefix replays the golden interleaving exactly. [None] under [Sc] —
     the kernels run their literally unchanged commit path. *)
  let ordering () =
    match config.cf_ordering with
    | Sim.Memord.Sc -> None
    | policy ->
      Some
        (Sim.Memord.make ~policy ~seed:config.cf_base_seed
           ~port_of:(port_of_buses r.Core.Refiner.rf_buses))
  in
  let counting_hooks, golden_log = Inject.counting () in
  let golden =
    match
      simulate ~config:config.cf_sim
        ~hooks:(with_poll counting_hooks)
        ?ordering:(ordering ()) program
    with
    | result -> result
    | exception Expr.Eval_error msg ->
      raise (Campaign_error ("golden run failed: " ^ msg))
  in
  begin match golden.Sim.Engine.r_outcome with
  | Sim.Engine.Completed -> ()
  | o ->
    raise
      (Campaign_error
         (Printf.sprintf "golden run did not complete: %s"
            (Sim.Engine.outcome_to_string o)))
  end;
  let golden_deltas = golden.Sim.Engine.r_deltas in
  (* A faulty run may legitimately take longer than the golden run (the
     hardened protocol retries with exponential backoff before giving
     up), but far less than 10x: anything beyond is budget exhaustion. *)
  let budget =
    {
      config.cf_sim with
      Sim.Engine.max_deltas = (golden_deltas * 10) + 50_000;
    }
  in
  let occurrences = Inject.occurrences golden_log in
  let targets = enumerate r occurrences in
  let golden_side = prepare ~storage:targets.tg_storage golden in
  let run_one seed cls =
    let cls_code =
      String.fold_left
        (fun a c -> (a * 31) + Char.code c)
        7 (Fault.cls_name cls)
    in
    let rng =
      Partitioning.Rng.create
        ((config.cf_base_seed * 1_000_003) + (seed * 10_007) + cls_code)
    in
    match draw rng ~targets ~occurrences ~golden_deltas cls with
    | None -> None
    | Some faults ->
      let key = Printf.sprintf "seed%d/%s" seed (Fault.cls_name cls) in
      let replayed =
        match journal with
        | None -> None
        | Some j ->
          Option.bind (Checkpoint.Journal.find j key)
            Checkpoint.Blob.of_blob
      in
      (match replayed with
      | Some rn -> Some rn
      | None ->
        (* A fault can drive the design into an expression it
           cannot evaluate (a flipped divisor becoming zero): the
           run stops there, a fail-stop like [WDG_ABORT].  The
           kernel reports no delta count for it. *)
        let outcome, deltas =
          match
            simulate ~config:budget
              ~hooks:(with_poll (Inject.hooks ~golden:golden_log faults))
              ?ordering:(ordering ()) program
          with
          | result ->
            ( classify_against golden_side result,
              result.Sim.Engine.r_deltas )
          | exception Expr.Eval_error _ -> (Deadlock, 0)
        in
        let rn =
          {
            run_seed = seed;
            run_class = cls;
            run_faults = faults;
            run_outcome = outcome;
            run_deltas = deltas;
          }
        in
        (* Only definitive outcomes checkpoint: a timed-out run
           must be retried by the resumed campaign, not replayed
           as a result. *)
        (match journal with
        | Some j when rn.run_outcome <> Timed_out ->
          Checkpoint.Journal.append j ~key (Checkpoint.Blob.to_blob rn)
        | _ -> ());
        Some rn)
  in
  (* Runs in (seed, class) order.  The first timed-out run ends the
     campaign: its deadline or cancel has fired, so every later run would
     only be started to be cancelled.  That run is kept, so the report
     shows the campaign was cut short. *)
  let rec rounds seed acc =
    if seed >= config.cf_seeds then List.rev acc
    else
      let rec classes acc = function
        | [] -> rounds (seed + 1) acc
        | cls :: rest ->
          begin match run_one seed cls with
          | None -> classes acc rest
          | Some ({ run_outcome = Timed_out; _ } as rn) -> List.rev (rn :: acc)
          | Some rn -> classes (rn :: acc) rest
          end
      in
      classes acc config.cf_classes
  in
  let runs = rounds 0 [] in
  let good =
    List.length
      (List.filter
         (fun rn ->
           match rn.run_outcome with
           | Survived | Detected_recovered -> true
           | Deadlock | Silent_corruption | Step_limit | Timed_out -> false)
         runs)
  in
  {
    rp_design = program.Ast.p_name;
    rp_hardened = r.Core.Refiner.rf_harden <> None;
    rp_seeds = config.cf_seeds;
    rp_runs = runs;
    rp_robustness =
      (if runs = [] then 1.0
       else float_of_int good /. float_of_int (List.length runs));
  }

(* --- reporting --------------------------------------------------------- *)

let summary report =
  let classes =
    List.sort_uniq compare (List.map (fun rn -> rn.run_class) report.rp_runs)
  in
  List.map
    (fun cls ->
      let of_cls =
        List.filter (fun rn -> rn.run_class = cls) report.rp_runs
      in
      ( cls,
        List.map
          (fun o ->
            (o, List.length (List.filter (fun rn -> rn.run_outcome = o) of_cls)))
          all_outcomes ))
    classes

let survival_fraction report cls =
  let of_cls = List.filter (fun rn -> rn.run_class = cls) report.rp_runs in
  if of_cls = [] then 1.0
  else
    float_of_int
      (List.length
         (List.filter
            (fun rn ->
              match rn.run_outcome with
              | Survived | Detected_recovered -> true
              | Deadlock | Silent_corruption | Step_limit | Timed_out ->
                false)
            of_cls))
    /. float_of_int (List.length of_cls)

let to_text report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "fault campaign: %s (%s), %d seeds, %d runs\n"
       report.rp_design
       (if report.rp_hardened then "hardened" else "unhardened")
       report.rp_seeds
       (List.length report.rp_runs));
  Buffer.add_string buf
    (Printf.sprintf "  %-18s %9s %9s %9s %9s %9s %9s\n" "class" "survived"
       "recovered" "deadlock" "corrupt" "limit" "timeout");
  List.iter
    (fun (cls, counts) ->
      let n o = List.assoc o counts in
      Buffer.add_string buf
        (Printf.sprintf "  %-18s %9d %9d %9d %9d %9d %9d\n"
           (Fault.cls_name cls) (n Survived) (n Detected_recovered)
           (n Deadlock) (n Silent_corruption) (n Step_limit) (n Timed_out)))
    (summary report);
  Buffer.add_string buf
    (Printf.sprintf "  robustness %.3f\n" report.rp_robustness);
  Buffer.contents buf

(* The pinned multi-line layout, one class or run per line; strings and
   the robustness figure are rendered by {!Spec.Json}. *)
let to_json report =
  let str s = Spec.Json.(to_string (String s)) in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"design\": %s,\n  \"hardened\": %b,\n  \"seeds\": %d,\n"
       (str report.rp_design) report.rp_hardened report.rp_seeds);
  Buffer.add_string buf
    (Printf.sprintf "  \"robustness\": %s,\n"
       Spec.Json.(to_string (fixed 4 report.rp_robustness)));
  Buffer.add_string buf "  \"classes\": [\n";
  let class_lines =
    List.map
      (fun (cls, counts) ->
        Printf.sprintf
          "    {\"class\": %s, \"survived\": %d, \"recovered\": %d, \
           \"deadlock\": %d, \"silent_corruption\": %d, \"step_limit\": %d, \
           \"timed_out\": %d}"
          (str (Fault.cls_name cls))
          (List.assoc Survived counts)
          (List.assoc Detected_recovered counts)
          (List.assoc Deadlock counts)
          (List.assoc Silent_corruption counts)
          (List.assoc Step_limit counts)
          (List.assoc Timed_out counts))
      (summary report)
  in
  Buffer.add_string buf (String.concat ",\n" class_lines);
  Buffer.add_string buf "\n  ],\n  \"runs\": [\n";
  let run_lines =
    List.map
      (fun rn ->
        Printf.sprintf
          "    {\"seed\": %d, \"class\": %s, \"outcome\": %s, \"deltas\": %d, \
           \"faults\": [%s]}"
          rn.run_seed
          (str (Fault.cls_name rn.run_class))
          (str (outcome_name rn.run_outcome))
          rn.run_deltas
          (String.concat ", "
             (List.map (fun f -> str (Fault.describe f)) rn.run_faults)))
      report.rp_runs
  in
  Buffer.add_string buf (String.concat ",\n" run_lines);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
