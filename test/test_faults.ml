(** Tests for the fault-injection subsystem: the engine's injection
    hooks, the enriched deadlock report, campaign determinism, and the
    hardened protocol's survival guarantees. *)

open Spec
open Helpers

(* --- a tiny handshake pair for the hook unit tests --------------------- *)

(* A raises [go], waits for [ack], emits OK; B acks [go].  C is an
   activity generator: it keeps the delta clock advancing so delayed
   updates have commits to ride on. *)
let handshake_spec ~activity =
  let a =
    Behavior.leaf "A"
      (Parser.stmts_of_string_exn
         "go <= true; wait until ack; emit \"OK\" 1;")
  in
  let b =
    Behavior.leaf "B"
      (Parser.stmts_of_string_exn "wait until go; ack <= true;")
  in
  let c =
    Behavior.leaf ~vars:[ Builder.bool_var ~init:false "t" ] "C"
      (Parser.stmts_of_string_exn
         "for i := 1 to 30 do t := not t; tick <= t; wait until tick = t; \
          end for;")
  in
  let children = [ a; b ] @ if activity then [ c ] else [] in
  Program.validate_exn
    (Program.make
       ~vars:[ Builder.int_var ~width:8 ~init:0 "i" ]
       ~signals:
         [
           Builder.bool_signal ~init:false "go";
           Builder.bool_signal ~init:false "ack";
           Builder.bool_signal ~init:false "tick";
         ]
       "handshake"
       (Behavior.par "TOP" children))

let test_drop_update_deadlocks () =
  let p = handshake_spec ~activity:false in
  (* Fault-free: completes. *)
  ignore (run_ok p);
  let hooks =
    Faults.Inject.hooks
      [ Faults.Fault.Drop_update { du_signal = "go"; du_occurrence = 1 } ]
  in
  let r = Sim.Engine.run ~hooks p in
  match r.Sim.Engine.r_outcome with
  | Sim.Engine.Deadlock msgs ->
    (* The enriched report names the signal each process waits on. *)
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "report names the dropped signal" true
      (List.exists (fun m -> contains m "go") msgs)
  | o ->
    Alcotest.failf "expected deadlock, got %s"
      (Sim.Engine.outcome_to_string o)

let test_delay_update_delivers () =
  let p = handshake_spec ~activity:true in
  let hooks =
    Faults.Inject.hooks
      [
        Faults.Fault.Delay_update
          { dl_signal = "go"; dl_occurrence = 1; dl_deltas = 5 };
      ]
  in
  let r = Sim.Engine.run ~hooks p in
  begin match r.Sim.Engine.r_outcome with
  | Sim.Engine.Completed -> ()
  | o ->
    Alcotest.failf "expected completion, got %s"
      (Sim.Engine.outcome_to_string o)
  end;
  Alcotest.(check int) "OK still emitted" 1
    (List.length (trace_values "OK" r))

let test_stuck_at_forces_value () =
  let p = handshake_spec ~activity:false in
  (* [ack] stuck low from the start: A never sees the acknowledgment. *)
  let hooks =
    Faults.Inject.hooks
      [
        Faults.Fault.Stuck_at
          { st_signal = "ack"; st_value = Ast.VBool false; st_delta = 0 };
      ]
  in
  let r = Sim.Engine.run ~hooks p in
  begin match r.Sim.Engine.r_outcome with
  | Sim.Engine.Deadlock _ -> ()
  | o ->
    Alcotest.failf "expected deadlock, got %s"
      (Sim.Engine.outcome_to_string o)
  end;
  Alcotest.(check int) "OK never emitted" 0
    (List.length (trace_values "OK" r))

let test_counting_hooks () =
  let p = handshake_spec ~activity:false in
  let hooks, schedule = Faults.Inject.counting () in
  ignore (Sim.Engine.run ~hooks p);
  let occurrences = Faults.Inject.occurrences schedule in
  let count s = Option.value ~default:0 (Hashtbl.find_opt occurrences s) in
  Alcotest.(check bool) "go committed once" true (count "go" >= 1);
  Alcotest.(check bool) "ack committed once" true (count "ack" >= 1)

(* --- campaigns against the medical workload ---------------------------- *)

let medical_refined ~harden model =
  let options = { Core.Refiner.default_options with harden } in
  refine ~options Workloads.Medical.spec
    (List.hd Workloads.Designs.all).Workloads.Designs.d_partition model

let small_config =
  {
    Faults.Campaign.default_config with
    Faults.Campaign.cf_seeds = 4;
  }

let test_campaign_deterministic () =
  let r = medical_refined ~harden:false Core.Model.Model2 in
  let strip report =
    List.map
      (fun rn ->
        Printf.sprintf "%d/%s/%s/%d" rn.Faults.Campaign.run_seed
          (Faults.Fault.cls_name rn.Faults.Campaign.run_class)
          (Faults.Campaign.outcome_name rn.Faults.Campaign.run_outcome)
          rn.Faults.Campaign.run_deltas)
      report.Faults.Campaign.rp_runs
  in
  let a = Faults.Campaign.run ~config:small_config r in
  let b = Faults.Campaign.run ~config:small_config r in
  Alcotest.(check (list string)) "identical runs" (strip a) (strip b);
  Alcotest.(check (float 0.0))
    "identical robustness" a.Faults.Campaign.rp_robustness
    b.Faults.Campaign.rp_robustness

let test_hardening_improves_survival () =
  List.iter
    (fun model ->
      let plain =
        Faults.Campaign.run ~config:small_config
          (medical_refined ~harden:false model)
      in
      let hard =
        Faults.Campaign.run ~config:small_config
          (medical_refined ~harden:true model)
      in
      Alcotest.(check bool)
        "hardened report flagged" true hard.Faults.Campaign.rp_hardened;
      (* Strictly higher survival for the classes the watchdog and TMR
         target, and overall. *)
      List.iter
        (fun cls ->
          let s_plain = Faults.Campaign.survival_fraction plain cls in
          let s_hard = Faults.Campaign.survival_fraction hard cls in
          if not (s_hard > s_plain) then
            Alcotest.failf "%s %s: hardened %.3f <= unhardened %.3f"
              (Core.Model.name model) (Faults.Fault.cls_name cls) s_hard
              s_plain)
        [ Faults.Fault.Drop_handshake; Faults.Fault.Bit_flip ];
      Alcotest.(check bool)
        "overall robustness strictly higher" true
        (hard.Faults.Campaign.rp_robustness
        > plain.Faults.Campaign.rp_robustness);
      (* The hardened design never corrupts silently: it survives,
         recovers, or fail-stops into an honest deadlock. *)
      List.iter
        (fun rn ->
          match rn.Faults.Campaign.run_outcome with
          | Faults.Campaign.Silent_corruption ->
            Alcotest.failf "%s seed %d %s: silent corruption under --harden"
              (Core.Model.name model) rn.Faults.Campaign.run_seed
              (Faults.Fault.cls_name rn.Faults.Campaign.run_class)
          | _ -> ())
        hard.Faults.Campaign.rp_runs)
    [ Core.Model.Model2; Core.Model.Model4 ]

let test_hardened_cosim_equivalent () =
  (* Hardening must not change fault-free observable behavior. *)
  List.iter
    (fun model ->
      let r = medical_refined ~harden:true model in
      let v =
        Sim.Cosim.check
          ~ignore_prefixes:Core.Protocol.reserved_tag_prefixes
          ~original:Workloads.Medical.spec
          ~refined:r.Core.Refiner.rf_program ()
      in
      if not v.Sim.Cosim.v_equivalent then
        Alcotest.failf "%s hardened not equivalent: %s"
          (Core.Model.name model)
          (String.concat "; " v.Sim.Cosim.v_problems))
    Core.Model.all

let test_report_rendering () =
  let r = medical_refined ~harden:true Core.Model.Model2 in
  let config =
    { small_config with Faults.Campaign.cf_seeds = 2 }
  in
  let report = Faults.Campaign.run ~config r in
  let text = Faults.Campaign.to_text report in
  Alcotest.(check bool) "text mentions design" true
    (String.length text > 0);
  let json = Faults.Campaign.to_json report in
  (* Every run appears in the JSON. *)
  Alcotest.(check bool) "json has runs" true
    (String.length json > String.length text)

(* --- resilience: cancellation, deadlines, resume ------------------------ *)

let test_classify_cancelled_is_timed_out () =
  let r = medical_refined ~harden:false Core.Model.Model2 in
  let golden = Sim.Engine.run r.Core.Refiner.rf_program in
  let cancelled = { golden with Sim.Engine.r_outcome = Sim.Engine.Cancelled } in
  (match Faults.Campaign.classify ~storage:[] ~golden cancelled with
  | Faults.Campaign.Timed_out -> ()
  | o ->
    Alcotest.failf "expected timed-out, got %s"
      (Faults.Campaign.outcome_name o));
  Alcotest.(check string) "named" "timed-out"
    (Faults.Campaign.outcome_name Faults.Campaign.Timed_out)

let test_campaign_deadline_on_golden_refuses () =
  let r = medical_refined ~harden:false Core.Model.Model2 in
  let config =
    { small_config with Faults.Campaign.cf_deadline_s = Some 0.0 }
  in
  match Faults.Campaign.run ~config r with
  | _ -> Alcotest.fail "an expired deadline must cancel the golden run"
  | exception Faults.Campaign.Campaign_error _ -> ()

(* A simulate wrapper that runs the golden (first) simulation for real,
   then reports every injected run as cancelled — the shape a deadline
   firing right after the golden run produces. *)
let cancel_after_golden () =
  let calls = ref 0 in
  let simulate ~config ~hooks ?ordering p =
    incr calls;
    let r = Sim.Engine.run ~config ~hooks ?ordering p in
    if !calls = 1 then r
    else { r with Sim.Engine.r_outcome = Sim.Engine.Cancelled }
  in
  (simulate, calls)

let campaign_fingerprint report =
  List.map
    (fun rn ->
      Printf.sprintf "%d/%s/%s/%d" rn.Faults.Campaign.run_seed
        (Faults.Fault.cls_name rn.Faults.Campaign.run_class)
        (Faults.Campaign.outcome_name rn.Faults.Campaign.run_outcome)
        rn.Faults.Campaign.run_deltas)
    report.Faults.Campaign.rp_runs

let fresh_journal_path () =
  let dir = Filename.temp_file "coref_faults" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Filename.concat dir "campaign.journal"

let test_campaign_timeouts_degrade_not_abort () =
  let r = medical_refined ~harden:false Core.Model.Model2 in
  let config = { small_config with Faults.Campaign.cf_seeds = 2 } in
  let path = fresh_journal_path () in
  let meta = Faults.Campaign.journal_meta config r in
  let j = Checkpoint.Journal.open_ ~path ~meta in
  let simulate, _ = cancel_after_golden () in
  let report = Faults.Campaign.run ~config ~simulate ~journal:j r in
  Alcotest.(check bool) "campaign completes" true
    (report.Faults.Campaign.rp_runs <> []);
  List.iter
    (fun rn ->
      match rn.Faults.Campaign.run_outcome with
      | Faults.Campaign.Timed_out -> ()
      | o ->
        Alcotest.failf "expected timed-out, got %s"
          (Faults.Campaign.outcome_name o))
    report.Faults.Campaign.rp_runs;
  Alcotest.(check (float 0.0)) "no run counted robust" 0.0
    report.Faults.Campaign.rp_robustness;
  (* Timed-out runs are transient: nothing may be journaled, so a later
     unhurried campaign retries every run. *)
  Alcotest.(check int) "nothing journaled" 0 (Checkpoint.Journal.length j);
  Checkpoint.Journal.close j;
  let j2 = Checkpoint.Journal.open_ ~path ~meta in
  let healthy = Faults.Campaign.run ~config ~journal:j2 r in
  Checkpoint.Journal.close j2;
  Alcotest.(check (list string)) "retried to the definitive report"
    (campaign_fingerprint (Faults.Campaign.run ~config r))
    (campaign_fingerprint healthy)

(* A cancel that fires after the golden run ends the campaign at the
   first run it cuts short: that run is recorded as timed out, and none
   of the remaining (seed, class) runs is started. *)
let test_campaign_stops_at_first_timeout () =
  let r = medical_refined ~harden:true Core.Model.Model2 in
  let calls = ref 0 in
  let simulate ~config ~hooks ?ordering p =
    incr calls;
    Sim.Engine.run ~config ~hooks ?ordering p
  in
  let config =
    {
      small_config with
      Faults.Campaign.cf_seeds = 1_000_000;
      cf_poll = Some (fun () -> !calls > 1);
    }
  in
  let report = Faults.Campaign.run ~config ~simulate r in
  Alcotest.(check int) "golden run plus one" 2 !calls;
  Alcotest.(check (list string)) "one timed-out run" [ "timed-out" ]
    (List.map
       (fun rn -> Faults.Campaign.outcome_name rn.Faults.Campaign.run_outcome)
       report.Faults.Campaign.rp_runs);
  Alcotest.(check bool) "robustness below 1" true
    (report.Faults.Campaign.rp_robustness < 1.0)

let test_campaign_kill_resume_round_trip () =
  let r = medical_refined ~harden:true Core.Model.Model2 in
  let config = { small_config with Faults.Campaign.cf_seeds = 2 } in
  let meta = Faults.Campaign.journal_meta config r in
  (* Reference: one full campaign, journaled. *)
  let full_path = fresh_journal_path () in
  let jf = Checkpoint.Journal.open_ ~path:full_path ~meta in
  let full = Faults.Campaign.run ~config ~journal:jf r in
  let n_runs = List.length full.Faults.Campaign.rp_runs in
  Alcotest.(check int) "every definitive run journaled" n_runs
    (Checkpoint.Journal.length jf);
  let recorded = Checkpoint.Journal.entries jf in
  Checkpoint.Journal.close jf;
  (* Model a SIGKILL after 3 completed runs: a journal holding a prefix. *)
  let part_path = fresh_journal_path () in
  let jp = Checkpoint.Journal.open_ ~path:part_path ~meta in
  List.iteri
    (fun i (key, blob) ->
      if i < 3 then Checkpoint.Journal.append jp ~key blob)
    recorded;
  Checkpoint.Journal.close jp;
  let jr = Checkpoint.Journal.open_ ~path:part_path ~meta in
  (* Resume with a healthy simulator, counting how many runs actually
     re-simulate: the replayed 3 must not. *)
  let calls = ref 0 in
  let simulate ~config ~hooks ?ordering p =
    incr calls;
    Sim.Engine.run ~config ~hooks ?ordering p
  in
  let resumed = Faults.Campaign.run ~config ~simulate ~journal:jr r in
  Checkpoint.Journal.close jr;
  Alcotest.(check (list string)) "resumed report identical"
    (campaign_fingerprint full)
    (campaign_fingerprint resumed);
  Alcotest.(check (float 0.0)) "identical robustness"
    full.Faults.Campaign.rp_robustness
    resumed.Faults.Campaign.rp_robustness;
  Alcotest.(check int) "only the remainder re-simulated"
    (1 + (n_runs - 3)) (* golden + the non-replayed runs *)
    !calls

(* A journaled run written by another build (here: the same blob under a
   different stamp, as older builds wrote no stamp at all) reads as
   missing: the resumed campaign re-simulates exactly that run and reports
   the same as a fresh campaign. *)
let test_campaign_other_build_recomputes () =
  let r = medical_refined ~harden:true Core.Model.Model2 in
  let config = { small_config with Faults.Campaign.cf_seeds = 2 } in
  let meta = Faults.Campaign.journal_meta config r in
  let full_path = fresh_journal_path () in
  let jf = Checkpoint.Journal.open_ ~path:full_path ~meta in
  let full = Faults.Campaign.run ~config ~journal:jf r in
  let recorded = Checkpoint.Journal.entries jf in
  Checkpoint.Journal.close jf;
  let path = fresh_journal_path () in
  let j = Checkpoint.Journal.open_ ~path ~meta in
  let n = String.length Checkpoint.Blob.stamp in
  List.iteri
    (fun i (key, blob) ->
      Checkpoint.Journal.append j ~key
        (if i = 0 then
           String.make n '0' ^ String.sub blob n (String.length blob - n)
         else blob))
    recorded;
  Checkpoint.Journal.close j;
  let jr = Checkpoint.Journal.open_ ~path ~meta in
  let calls = ref 0 in
  let simulate ~config ~hooks ?ordering p =
    incr calls;
    Sim.Engine.run ~config ~hooks ?ordering p
  in
  let resumed = Faults.Campaign.run ~config ~simulate ~journal:jr r in
  Checkpoint.Journal.close jr;
  Alcotest.(check (list string)) "same report as a fresh campaign"
    (campaign_fingerprint full)
    (campaign_fingerprint resumed);
  Alcotest.(check int) "golden run plus the one unreadable run" 2 !calls

let test_campaign_journal_meta_binds_config () =
  let r = medical_refined ~harden:false Core.Model.Model2 in
  let config = { small_config with Faults.Campaign.cf_seeds = 2 } in
  let path = fresh_journal_path () in
  let j =
    Checkpoint.Journal.open_ ~path
      ~meta:(Faults.Campaign.journal_meta config r)
  in
  Checkpoint.Journal.close j;
  let other = { config with Faults.Campaign.cf_seeds = 3 } in
  match
    Checkpoint.Journal.open_ ~path
      ~meta:(Faults.Campaign.journal_meta other r)
  with
  | _ -> Alcotest.fail "a different configuration must refuse the journal"
  | exception Checkpoint.Journal.Journal_error _ -> ()

(* --- qcheck: a dropped done-edge never silently corrupts ---------------- *)

(* Refined fig1, hardened: any single dropped [*_done] handshake update
   either recovers (watchdog redrive) or fail-stops into a deadlock —
   never a silently corrupted completion. *)
let prop_dropped_done_never_corrupts =
  let r =
    let options = { Core.Refiner.default_options with harden = true } in
    let p = Workloads.Smallspecs.fig1 in
    let g = Agraph.Access_graph.of_program p in
    Core.Refiner.refine ~options p g Workloads.Smallspecs.fig1_partition
      Core.Model.Model2
  in
  let program = r.Core.Refiner.rf_program in
  let hooks, schedule = Faults.Inject.counting () in
  let golden = Sim.Engine.run ~hooks program in
  let occurrences = Faults.Inject.occurrences schedule in
  (match golden.Sim.Engine.r_outcome with
  | Sim.Engine.Completed -> ()
  | o ->
    failwith ("golden fig1 run: " ^ Sim.Engine.outcome_to_string o));
  let targets = Faults.Campaign.enumerate r occurrences in
  let has_suffix suffix s =
    let ls = String.length suffix and l = String.length s in
    l >= ls && String.sub s (l - ls) ls = suffix
  in
  let dones =
    List.filter (has_suffix "_done") targets.Faults.Campaign.tg_handshakes
  in
  assert (dones <> []);
  let budget =
    {
      Sim.Engine.default_config with
      Sim.Engine.max_deltas = (golden.Sim.Engine.r_deltas * 10) + 50_000;
    }
  in
  QCheck.Test.make ~count:25
    ~name:"single dropped done-edge: recover or deadlock, never corrupt"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
    (fun pick ->
      let signal = List.nth dones (pick mod List.length dones) in
      let commits =
        Option.value ~default:1 (Hashtbl.find_opt occurrences signal)
      in
      let occurrence = 1 + (pick / 7 mod commits) in
      let faulty =
        Sim.Engine.run ~config:budget
          ~hooks:
            (Faults.Inject.hooks
               [
                 Faults.Fault.Drop_update
                   { du_signal = signal; du_occurrence = occurrence };
               ])
          program
      in
      match
        Faults.Campaign.classify
          ~storage:targets.Faults.Campaign.tg_storage ~golden faulty
      with
      | Faults.Campaign.Survived | Faults.Campaign.Detected_recovered
      | Faults.Campaign.Deadlock ->
        true
      | Faults.Campaign.Silent_corruption ->
        QCheck.Test.fail_reportf "drop %s #%d: silent corruption" signal
          occurrence
      | Faults.Campaign.Step_limit ->
        QCheck.Test.fail_reportf "drop %s #%d: step limit" signal occurrence
      | Faults.Campaign.Timed_out ->
        QCheck.Test.fail_reportf "drop %s #%d: timed out" signal occurrence)

(* --- targeted hooks ------------------------------------------------------ *)

(* The injection hooks as they were before they became targeted: [decide]
   on every update of every signal, occurrences counted for every signal,
   the on-commit hook always installed.  The differential property holds
   {!Faults.Inject.hooks} to exactly their behavior. *)
let always_on_hooks faults =
  let decide ~delta ~name ~occurrence value k =
    let stuck =
      List.find_map
        (function
          | Faults.Fault.Stuck_at f
            when String.equal f.st_signal name && delta >= f.st_delta ->
            Some (Sim.Sigtable.Rewrite f.st_value)
          | _ -> None)
        faults
    in
    match stuck with
    | Some action -> action
    | None ->
      let transient =
        List.find_map
          (function
            | Faults.Fault.Drop_update f
              when String.equal f.du_signal name
                   && occurrence = f.du_occurrence ->
              Some Sim.Sigtable.Drop
            | Faults.Fault.Delay_update f
              when String.equal f.dl_signal name
                   && occurrence = f.dl_occurrence ->
              k (delta + f.dl_deltas) value;
              Some Sim.Sigtable.Drop
            | _ -> None)
          faults
      in
      Option.value transient ~default:Sim.Sigtable.Pass
  in
  let occ : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let delayed = ref [] in
  let intercept ~delta name value =
    let n = Option.value ~default:0 (Hashtbl.find_opt occ name) + 1 in
    Hashtbl.replace occ name n;
    decide ~delta ~name ~occurrence:n value (fun due v ->
        delayed := (due, name, v) :: !delayed)
  in
  let on_commit (probe : Sim.Engine.probe) =
    let now = probe.Sim.Engine.pr_delta in
    let due, keep = List.partition (fun (d, _, _) -> d <= now) !delayed in
    delayed := keep;
    List.iter
      (fun (_, s, v) ->
        ignore (Sim.Sigtable.poke probe.Sim.Engine.pr_signals s v))
      due;
    List.iter
      (function
        | Faults.Fault.Flip_bit f when f.fl_delta = now ->
          begin match probe.Sim.Engine.pr_read_var f.fl_var with
          | Some (Ast.VInt v) ->
            ignore
              (probe.Sim.Engine.pr_write_var f.fl_var
                 (Ast.VInt (v lxor (1 lsl f.fl_bit))))
          | Some (Ast.VBool b) ->
            ignore (probe.Sim.Engine.pr_write_var f.fl_var (Ast.VBool (not b)))
          | None -> ()
          end
        | _ -> ())
      faults
  in
  {
    Sim.Engine.h_intercept = Some intercept;
    h_on_commit = Some on_commit;
    h_poll = None;
    h_fault_from = None;
    h_log = None;
  }

let flip = Faults.Fault.Flip_bit { fl_var = "i"; fl_bit = 0; fl_delta = 3 }
let drop = Faults.Fault.Drop_update { du_signal = "go"; du_occurrence = 1 }

let delay =
  Faults.Fault.Delay_update
    { dl_signal = "go"; dl_occurrence = 1; dl_deltas = 5 }

let stuck =
  Faults.Fault.Stuck_at
    { st_signal = "ack"; st_value = Ast.VBool false; st_delta = 0 }

let test_hooks_installed_only_when_needed () =
  let installed faults =
    let h = Faults.Inject.hooks faults in
    ( Option.is_some h.Sim.Engine.h_intercept,
      Option.is_some h.Sim.Engine.h_on_commit )
  in
  let check name faults expected =
    Alcotest.(check (pair bool bool)) name expected (installed faults)
  in
  check "flip: no intercept" [ flip ] (false, true);
  check "multi-flip: no intercept" [ flip; flip ] (false, true);
  check "drop: no on-commit" [ drop ] (true, false);
  check "stuck-at: no on-commit" [ stuck ] (true, false);
  check "drop and stuck-at: no on-commit" [ drop; stuck ] (true, false);
  check "delay: both" [ delay ] (true, true);
  check "flip and drop: both" [ flip; drop ] (true, true);
  check "no faults: neither" [] (false, false)

(* The hardened medical designs, each with its golden run and targets,
   built on first use. *)
let hardened_cases =
  lazy
    (Array.of_list
       (List.concat_map
          (fun d ->
            List.map
              (fun model ->
                let options =
                  { Core.Refiner.default_options with harden = true }
                in
                let r =
                  refine ~options Workloads.Medical.spec
                    d.Workloads.Designs.d_partition model
                in
                let program = r.Core.Refiner.rf_program in
                let hooks, schedule = Faults.Inject.counting () in
                let golden = Sim.Engine.run ~hooks program in
                let occurrences = Faults.Inject.occurrences schedule in
                ( Printf.sprintf "%s/%s" d.Workloads.Designs.d_name
                    (Core.Model.name model),
                  program,
                  golden,
                  schedule,
                  Faults.Campaign.enumerate r occurrences ))
              Core.Model.all)
          Workloads.Designs.all))

(* One fault of any kind, aimed at the case's targets by [pick]s. *)
let fault_of_picks ~golden ~schedule targets (kind, a, b, c) =
  let nth l i = List.nth l (i mod List.length l) in
  let occurrences = Faults.Inject.occurrences schedule in
  let signals =
    List.map (fun s -> (s, 0)) targets.Faults.Campaign.tg_handshakes
    @ targets.Faults.Campaign.tg_lines
    @ List.map (fun s -> (s, 0)) targets.Faults.Campaign.tg_acks
  in
  let occurrence s =
    1 + (b mod max 1 (Option.value ~default:1 (Hashtbl.find_opt occurrences s)))
  in
  let deltas = max 1 golden.Sim.Engine.r_deltas in
  match kind mod 4 with
  | 0 ->
    let var, width = nth targets.Faults.Campaign.tg_storage a in
    Faults.Fault.Flip_bit
      {
        fl_var = var;
        fl_bit = b mod max 1 width;
        fl_delta = 1 + (c mod deltas);
      }
  | 1 ->
    let s, _ = nth signals a in
    Faults.Fault.Drop_update { du_signal = s; du_occurrence = occurrence s }
  | 2 ->
    let s, _ = nth signals a in
    Faults.Fault.Delay_update
      {
        dl_signal = s;
        dl_occurrence = occurrence s;
        dl_deltas = 1 + (c mod 200);
      }
  | _ ->
    let s, width = nth signals a in
    Faults.Fault.Stuck_at
      {
        st_signal = s;
        st_value =
          (if width = 0 then Ast.VBool (b mod 2 = 0)
           else Ast.VInt (b mod (1 lsl min width 8)));
        st_delta = c mod deltas;
      }

let prop_targeted_hooks_match_always_on =
  let gen =
    QCheck.Gen.(
      pair (int_bound 1_000)
        (list_size (int_range 1 3)
           (quad (int_bound 3) (int_bound 10_000) (int_bound 10_000)
              (int_bound 10_000))))
  in
  QCheck.Test.make ~count:150
    ~name:"targeted hooks match the always-on hooks on hardened designs"
    (QCheck.make gen)
    (fun (case, picks) ->
      let cases = Lazy.force hardened_cases in
      let name, program, golden, schedule, targets =
        cases.(case mod Array.length cases)
      in
      let faults =
        List.map (fault_of_picks ~golden ~schedule targets) picks
      in
      let config =
        {
          Sim.Engine.default_config with
          Sim.Engine.max_deltas = (golden.Sim.Engine.r_deltas * 10) + 50_000;
        }
      in
      let simulate hooks =
        match Sim.Engine.run ~config ~hooks program with
        | r ->
          Ok
            ( r,
              Faults.Campaign.classify
                ~storage:targets.Faults.Campaign.tg_storage ~golden r )
        | exception Expr.Eval_error m -> Error m
      in
      let targeted = simulate (Faults.Inject.hooks faults) in
      (* With the golden schedule the hooks declare where they start to
         act, and the engine starts the run from a checkpoint. *)
      let from_golden =
        simulate (Faults.Inject.hooks ~golden:schedule faults)
      in
      let always_on = simulate (always_on_hooks faults) in
      (targeted = always_on && from_golden = always_on)
      || QCheck.Test.fail_reportf "%s [%s]: results differ" name
           (String.concat "; " (List.map Faults.Fault.describe faults)))

(* A bit flip that turns a divisor into zero used to escape the campaign
   as [Eval_error "division by zero"]; it is a fail-stop, classified
   deadlock, on both kernels. *)
let test_eval_error_classifies_deadlock () =
  let design = List.nth Workloads.Designs.all 2 in
  let r =
    refine
      ~options:{ Core.Refiner.default_options with harden = true }
      Workloads.Medical.spec design.Workloads.Designs.d_partition
      Core.Model.Model2
  in
  let config =
    {
      Faults.Campaign.default_config with
      Faults.Campaign.cf_seeds = 1;
      cf_base_seed = 156;
      cf_classes = [ Faults.Fault.Bit_flip ];
    }
  in
  let outcomes report =
    List.map
      (fun rn -> Faults.Campaign.outcome_name rn.Faults.Campaign.run_outcome)
      report.Faults.Campaign.rp_runs
  in
  let engine = Faults.Campaign.run ~config r in
  let reference =
    Faults.Campaign.run ~config
      ~simulate:(fun ~config ~hooks ?ordering p ->
        Sim.Reference.run ~config ~hooks ?ordering p)
      r
  in
  Alcotest.(check (list string)) "deadlock" [ "deadlock" ] (outcomes engine);
  Alcotest.(check (list string)) "same on both kernels" (outcomes engine)
    (outcomes reference);
  Alcotest.(check (list string)) "identical JSON"
    [ Faults.Campaign.to_json engine ]
    [ Faults.Campaign.to_json reference ]

let () =
  Alcotest.run "faults"
    [
      ( "inject",
        [
          tc "dropped update deadlocks, report names signal"
            test_drop_update_deadlocks;
          tc "delayed update delivers" test_delay_update_delivers;
          tc "stuck-at forces value" test_stuck_at_forces_value;
          tc "counting hooks" test_counting_hooks;
          tc "hooks installed only when needed"
            test_hooks_installed_only_when_needed;
        ] );
      ( "campaign",
        [
          tc "deterministic" test_campaign_deterministic;
          tc "hardening improves survival" test_hardening_improves_survival;
          tc "hardened cosim equivalent" test_hardened_cosim_equivalent;
          tc "report rendering" test_report_rendering;
          tc "evaluation error classifies deadlock"
            test_eval_error_classifies_deadlock;
        ] );
      ( "resilience",
        [
          tc "cancelled classifies timed-out" test_classify_cancelled_is_timed_out;
          tc "deadline on golden refuses" test_campaign_deadline_on_golden_refuses;
          tc "timeouts degrade not abort" test_campaign_timeouts_degrade_not_abort;
          tc "stops at first timeout" test_campaign_stops_at_first_timeout;
          tc "kill-resume round-trip" test_campaign_kill_resume_round_trip;
          tc "journal meta binds config" test_campaign_journal_meta_binds_config;
          tc "another build's run recomputes"
            test_campaign_other_build_recomputes;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_dropped_done_never_corrupts;
          QCheck_alcotest.to_alcotest prop_targeted_hooks_match_always_on;
        ] );
    ]
