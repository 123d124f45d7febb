(** Tests for the weak-memory layer: the {!Sim.Memord} port-ordering
    scheduler, the litmus shapes, and the suite runner.

    The two load-bearing claims: [sc] is byte-identical to not
    installing the ordering layer at all (the default path is
    untouched), and the two kernels classify every litmus point
    identically (the ordering layer cannot de-synchronize them). *)

open Helpers

let policies = [ Sim.Memord.Sc; Sim.Memord.Per_port_fifo; Sim.Memord.Relaxed 2 ]

(* --- Memord unit tests -------------------------------------------------- *)

let test_policy_parsing () =
  let ok s p =
    match Sim.Memord.policy_of_string s with
    | Ok q -> Alcotest.(check bool) s true (q = p)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "sc" Sim.Memord.Sc;
  ok "per-port-fifo" Sim.Memord.Per_port_fifo;
  ok "fifo" Sim.Memord.Per_port_fifo;
  ok "relaxed" (Sim.Memord.Relaxed Sim.Memord.default_window);
  ok "relaxed:4" (Sim.Memord.Relaxed 4);
  (match Sim.Memord.policy_of_string "relaxed:0" with
  | Ok _ -> Alcotest.fail "relaxed:0 accepted"
  | Error _ -> ());
  (match Sim.Memord.policy_of_string "total-store-order" with
  | Ok _ -> Alcotest.fail "unknown policy accepted"
  | Error _ -> ());
  (* round-trip through the report spelling *)
  List.iter
    (fun p ->
      match Sim.Memord.policy_of_string (Sim.Memord.policy_to_string p) with
      | Ok q -> Alcotest.(check bool) "round-trip" true (p = q)
      | Error e -> Alcotest.failf "round-trip rejected: %s" e)
    (Sim.Memord.Relaxed 5 :: policies)

let port_of_ab s =
  if String.length s >= 2 && String.sub s 0 2 = "a_" then Some "p0"
  else if String.length s >= 2 && String.sub s 0 2 = "b_" then Some "p1"
  else None

let test_sc_diverts_nothing () =
  let t = Sim.Memord.make ~policy:Sim.Memord.Sc ~seed:1 ~port_of:port_of_ab in
  Alcotest.(check bool) "nothing diverted" false
    (Sim.Memord.capture t ~delta:0 "a_x" (vint 1));
  Alcotest.(check bool) "no pending" false (Sim.Memord.pending t);
  Alcotest.(check int) "counter stays zero" 0 (Sim.Memord.diverted t)

let test_fifo_groups_release_atomically () =
  let t =
    Sim.Memord.make ~policy:Sim.Memord.Per_port_fifo ~seed:1
      ~port_of:port_of_ab
  in
  (* one two-update delta-group on port p0, plus an unowned update *)
  Alcotest.(check bool) "a_x diverted" true
    (Sim.Memord.capture t ~delta:3 "a_x" (vint 1));
  Alcotest.(check bool) "a_y diverted" true
    (Sim.Memord.capture t ~delta:3 "a_y" (vint 2));
  Alcotest.(check bool) "unowned passes through" false
    (Sim.Memord.capture t ~delta:3 "clock" (vint 9));
  Alcotest.(check bool) "pending" true (Sim.Memord.pending t);
  let batch = Sim.Memord.release t in
  Alcotest.(check (list (pair string value_testable)))
    "the whole delta-group releases together, in capture order"
    [ ("a_x", vint 1); ("a_y", vint 2) ]
    batch;
  Alcotest.(check bool) "drained" false (Sim.Memord.pending t)

(* Same-signal order survives every policy: two writes to one name
   release oldest-first even under relaxed, whatever the seed. *)
let test_relaxed_preserves_same_signal_order () =
  List.iter
    (fun seed ->
      let t =
        Sim.Memord.make ~policy:(Sim.Memord.Relaxed 4) ~seed
          ~port_of:port_of_ab
      in
      ignore (Sim.Memord.capture t ~delta:0 "a_x" (vint 1));
      ignore (Sim.Memord.capture t ~delta:1 "a_x" (vint 2));
      let rec drain acc =
        match Sim.Memord.release t with
        | [] -> List.rev acc
        | batch -> drain (List.rev_append batch acc)
      in
      let order =
        List.filter_map
          (fun (n, v) -> if n = "a_x" then Some v else None)
          (drain [])
      in
      Alcotest.(check (list value_testable))
        (Printf.sprintf "seed %d keeps per-location order" seed)
        [ vint 1; vint 2 ] order)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- sc is byte-identical to no ordering layer at all ------------------- *)

let test_sc_is_identity () =
  List.iter
    (fun shape ->
      let p = shape.Litmus.Shape.sh_program in
      let config =
        { Sim.Engine.default_config with Sim.Engine.trace_signals = true }
      in
      let bare = Sim.Engine.run ~config p in
      let sc =
        Sim.Engine.run ~config
          ~ordering:
            (Sim.Memord.make ~policy:Sim.Memord.Sc ~seed:7
               ~port_of:(Litmus.Shape.port_of shape))
          p
      in
      Alcotest.(check bool)
        (shape.Litmus.Shape.sh_name ^ ": sc result bit-identical")
        true (bare = sc))
    (Litmus.Shape.all ())

(* --- determinism and kernel agreement across the matrix ----------------- *)

let test_kernels_agree_everywhere () =
  List.iter
    (fun shape ->
      List.iter
        (fun ordering ->
          List.iter
            (fun seed ->
              let label =
                Printf.sprintf "%s/%s/%d" shape.Litmus.Shape.sh_name
                  (Sim.Memord.policy_to_string ordering)
                  seed
              in
              let e = Litmus.Run.run ~kernel:`Engine ~ordering ~seed shape in
              let r =
                Litmus.Run.run ~kernel:`Reference ~ordering ~seed shape
              in
              Alcotest.(check string)
                (label ^ ": verdicts agree")
                (Litmus.Classify.to_string e.Litmus.Run.o_verdict)
                (Litmus.Classify.to_string r.Litmus.Run.o_verdict);
              Alcotest.(check bool)
                (label ^ ": observed vectors agree")
                true
                (e.Litmus.Run.o_observed = r.Litmus.Run.o_observed);
              (* replaying the same point is bit-identical *)
              let e2 = Litmus.Run.run ~kernel:`Engine ~ordering ~seed shape in
              Alcotest.(check bool)
                (label ^ ": replay deterministic")
                true
                (e.Litmus.Run.o_observed = e2.Litmus.Run.o_observed
                && e.Litmus.Run.o_verdict = e2.Litmus.Run.o_verdict))
            [ 1; 2; 3 ])
        policies)
    (Litmus.Shape.all ())

(* --- the suite report --------------------------------------------------- *)

let test_suite_invariants () =
  let config =
    { (Litmus.Suite.default_config ()) with Litmus.Suite.cf_seeds = 4 }
  in
  let report = Litmus.Suite.run config in
  Alcotest.(check int) "no forbidden outcome" 0
    report.Litmus.Suite.rp_forbidden;
  Alcotest.(check int) "no fault-free corruption" 0
    report.Litmus.Suite.rp_corruption;
  Alcotest.(check int) "no kernel mismatch" 0
    report.Litmus.Suite.rp_kernel_mismatches;
  Alcotest.(check bool) "weak outcomes observed under weak orderings" true
    (report.Litmus.Suite.rp_weak_allowed > 0);
  (* every weak-allowed entry sits under a weak ordering *)
  List.iter
    (fun en ->
      if en.Litmus.Suite.en_verdict = Litmus.Classify.Weak_allowed then
        Alcotest.(check bool)
          (en.Litmus.Suite.en_shape ^ " weak under a weak ordering")
          false
          (String.equal en.Litmus.Suite.en_ordering "sc"))
    report.Litmus.Suite.rp_entries;
  (* the hardened memory shape never corrupts, under any ordering *)
  List.iter
    (fun en ->
      if String.equal en.Litmus.Suite.en_shape "mem-tmr" then
        Alcotest.(check bool)
          (Printf.sprintf "mem-tmr clean under %s seed %d"
             en.Litmus.Suite.en_ordering en.Litmus.Suite.en_seed)
          true
          (en.Litmus.Suite.en_verdict = Litmus.Classify.Sc_consistent))
    report.Litmus.Suite.rp_entries;
  (* RACE003 names at least the unhardened shapes that went weak *)
  let races = Litmus.Suite.race_diagnostics report in
  Alcotest.(check bool) "RACE003 fired" true (races <> []);
  List.iter
    (fun d ->
      Alcotest.(check string) "the litmus race code" "RACE003"
        d.Spec.Diagnostic.d_code)
    races;
  (* byte-identical replay: what lets serve mirror the CLI *)
  let report' = Litmus.Suite.run config in
  Alcotest.(check string) "JSON replays bit-identically"
    (Litmus.Suite.to_json report)
    (Litmus.Suite.to_json report');
  Alcotest.(check string) "text replays bit-identically"
    (Litmus.Suite.to_text report)
    (Litmus.Suite.to_text report')

let test_suite_faults_classify () =
  let config =
    {
      Litmus.Suite.cf_shapes = [ Litmus.Shape.coherence () ];
      cf_orderings = [ Sim.Memord.Sc ];
      cf_seeds = 1;
      cf_faults = true;
    }
  in
  let report = Litmus.Suite.run config in
  let faulted =
    List.filter
      (fun en -> en.Litmus.Suite.en_fault <> None)
      report.Litmus.Suite.rp_entries
  in
  Alcotest.(check bool) "fault plans ran" true (faulted <> []);
  (* the canned bit flip drives an observed register out of domain *)
  Alcotest.(check bool) "a fault surfaces as corruption or deadlock" true
    (List.exists
       (fun en ->
         en.Litmus.Suite.en_verdict = Litmus.Classify.Corruption
         || en.Litmus.Suite.en_verdict = Litmus.Classify.Deadlock)
       faulted)

(* --- property: sc can never be classified weak -------------------------- *)

let prop_sc_never_weak =
  QCheck.Test.make ~count:40
    ~name:"under sc, every fault-free litmus run is sc-consistent"
    QCheck.(pair (int_range 0 5) (int_range 1 10_000))
    (fun (shape_idx, seed) ->
      let shapes = Litmus.Shape.all () in
      let shape = List.nth shapes (shape_idx mod List.length shapes) in
      let o =
        Litmus.Run.run ~kernel:`Engine ~ordering:Sim.Memord.Sc ~seed shape
      in
      o.Litmus.Run.o_verdict = Litmus.Classify.Sc_consistent)

let () =
  Alcotest.run "litmus"
    [
      ( "memord",
        [
          tc "policy parsing round-trips" test_policy_parsing;
          tc "sc diverts nothing" test_sc_diverts_nothing;
          tc "fifo delta-groups release atomically"
            test_fifo_groups_release_atomically;
          tc "relaxed preserves per-location order"
            test_relaxed_preserves_same_signal_order;
        ] );
      ( "kernels",
        [
          tc "sc ordering is the identity" test_sc_is_identity;
          tc "engine = reference across the matrix"
            test_kernels_agree_everywhere;
        ] );
      ( "suite",
        [
          tc "matrix invariants and replay" test_suite_invariants;
          tc "fault plans classify" test_suite_faults_classify;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_sc_never_weak ]);
    ]
