(** Differential tests: two kernels over the same observable machinery
    ({!Sim.Runtime}).  The event-driven {!Sim.Engine} runs leaves on the
    bytecode register VM; the polling {!Sim.Reference} runs them on the
    tree-walking interpreter.  One comparison therefore crosses both the
    scheduler and the leaf machine: a divergence is a scheduling bug or a
    compiler/VM bug.  Every comparison is bit-level: outcome, trace,
    delta and step counts, final values, signal trace — and for fault
    injection, the campaign classification of the faulty run. *)

open Workloads
open Helpers

let diff_config =
  { Sim.Engine.default_config with Sim.Engine.trace_signals = true }

type kernel = [ `Vm | `Reference ]

let kernel_name = function `Vm -> "engine-vm" | `Reference -> "reference"

(* Compare every observable field; on mismatch name the kernels and the
   first field that differs so failures are actionable. *)
let check_same label ka kb (a : Sim.Engine.result) (b : Sim.Engine.result) =
  let fail field =
    Alcotest.failf "%s: %s and %s diverge on %s (%s: %s, %s: %s)" label
      (kernel_name ka) (kernel_name kb) field (kernel_name ka)
      (Sim.Engine.outcome_to_string a.Sim.Engine.r_outcome)
      (kernel_name kb)
      (Sim.Engine.outcome_to_string b.Sim.Engine.r_outcome)
  in
  if a.Sim.Engine.r_outcome <> b.Sim.Engine.r_outcome then fail "outcome";
  if a.Sim.Engine.r_trace <> b.Sim.Engine.r_trace then fail "trace";
  if a.Sim.Engine.r_deltas <> b.Sim.Engine.r_deltas then fail "deltas";
  if a.Sim.Engine.r_steps <> b.Sim.Engine.r_steps then fail "steps";
  if a.Sim.Engine.r_final <> b.Sim.Engine.r_final then fail "final values";
  if a.Sim.Engine.r_signal_trace <> b.Sim.Engine.r_signal_trace then
    fail "signal trace"

(* Run one program under one kernel.  [hooks_of]/[ordering_of] build a
   fresh value per kernel — hooks carry mutable fault counters and an
   ordering carries FIFO state, so sharing one across kernels would leak
   the first run into the second. *)
let run_kernel ?(config = diff_config) ?hooks ?ordering (k : kernel) p =
  match k with
  | `Vm -> Sim.Engine.run ~config ?hooks ?ordering p
  | `Reference -> Sim.Reference.run ~config ?hooks ?ordering p

let run_both ?config ?hooks_of ?ordering_of p =
  let get f k = match f with None -> None | Some g -> Some (g k) in
  let one k =
    run_kernel ?config ?hooks:(get hooks_of k) ?ordering:(get ordering_of k)
      k p
  in
  (one `Vm, one `Reference)

(* Every comparison also reruns the engine without a signal trace: it
   then commits through a separate path, which must agree with the
   traced run on everything but the signal trace itself. *)
let check_program label ?(config = diff_config) ?hooks_of p =
  let vm, r = run_both ~config ?hooks_of p in
  check_same label `Vm `Reference vm r;
  let untraced =
    run_kernel
      ~config:{ config with Sim.Engine.trace_signals = false }
      ?hooks:(Option.map (fun f -> f `Vm) hooks_of)
      `Vm p
  in
  check_same (label ^ " (untraced)") `Vm `Vm
    { vm with Sim.Engine.r_signal_trace = [] }
    untraced

(* --- the four implementation models on the medical workload ------------ *)

let refined model design =
  let r =
    Core.Refiner.refine Medical.spec Medical.graph design.Designs.d_partition
      model
  in
  r.Core.Refiner.rf_program

let test_models () =
  List.iter
    (fun m ->
      check_program
        (Printf.sprintf "medical/%s" (Core.Model.name m))
        (refined m Designs.design1))
    Core.Model.all

let test_designs () =
  List.iter
    (fun d ->
      check_program
        (Printf.sprintf "medical-m3/%s" d.Designs.d_name)
        (refined Core.Model.Model3 d))
    Designs.all

(* --- the other workloads, original (unrefined) specs ------------------- *)

let test_workloads () =
  check_program "medical/original" Medical.spec;
  check_program "elevator/original" Elevator.spec;
  check_program "fir/original" Fir.spec

(* --- deadlocking and budget-limited programs --------------------------- *)

let s = Spec.Parser.stmts_of_string_exn

let test_deadlock_reports () =
  (* Two processes each waiting on a signal only the other would set, plus
     a wait on a frame variable nobody writes: the deadlock descriptions
     (including waited names and values) must match exactly. *)
  let p =
    Spec.Program.make
      ~signals:
        [ Spec.Builder.bool_signal "a"; Spec.Builder.bool_signal "b" ]
      ~vars:[ Spec.Builder.int_var ~init:0 "quiet" ]
      "dead"
      (Spec.Behavior.par "top"
         [
           Spec.Behavior.leaf "P" (s "wait until a;");
           Spec.Behavior.leaf "Q" (s "wait until b;");
           Spec.Behavior.leaf "R" (s "wait until quiet = 1;");
         ])
  in
  check_program "deadlock/three-waiters" p

let test_step_limit () =
  let p =
    Spec.Program.make
      ~signals:[ Spec.Builder.int_signal ~init:0 "tick" ]
      "spin"
      (Spec.Behavior.leaf "L"
         (s "while 0 < 1 do tick <= tick + 1; wait until tick > 1000000; end while;"))
  in
  let config =
    { diff_config with Sim.Engine.max_steps = 5_000; max_deltas = 100 }
  in
  check_program "limits/step-limit" ~config p

(* --- variable waits and empty compositions ----------------------------- *)

let test_variable_waits () =
  (* A wait on a variable that another leaf writes is polled: no commit
     announces the write.  P blocks at one wait site three times, so its
     repeat parks must stay polled too.  The leading empty composition
     is done at instantiation; the first round has to advance past it
     before any leaf exists. *)
  let p =
    Spec.Program.make
      ~signals:[ Spec.Builder.int_signal ~init:0 "tick" ]
      ~vars:[ Spec.Builder.int_var ~init:0 "flag" ]
      "varwait"
      (Spec.Behavior.seq "top"
         [
           Spec.Behavior.arm (Spec.Behavior.par "empty" []);
           Spec.Behavior.arm
             (Spec.Behavior.par "body"
                [
                  Spec.Behavior.leaf
                    ~vars:[ Spec.Builder.int_var ~init:0 "i" ]
                    "P"
                    (s "while i < 3 do wait until flag > i; i := i + 1; \
                        emit \"seen\" i; end while;");
                  Spec.Behavior.leaf "Q"
                    (s "flag := 1; tick <= 1; wait until tick = 1; \
                        flag := 2; tick <= 2; wait until tick = 2; \
                        flag := 3;");
                ]);
         ])
  in
  check_program "waits/variable-and-empty" p;
  let r = Sim.Reference.run ~config:diff_config p in
  Alcotest.(check string) "completes" "completed"
    (Sim.Engine.outcome_to_string r.Sim.Engine.r_outcome);
  Alcotest.(check int) "three wake-ups" 3 (List.length r.Sim.Engine.r_trace)

let test_wide_composition () =
  (* More leaves than the engine's runnable bitmask holds (62 slots):
     every round falls back to scanning the whole slot array. *)
  let waiter i =
    Spec.Behavior.leaf
      (Printf.sprintf "L%d" i)
      (s
         (Printf.sprintf
            "emit \"ready\" %d; wait until go; emit \"done\" %d;" i i))
  in
  let p =
    Spec.Program.make
      ~signals:[ Spec.Builder.bool_signal "go" ]
      "wide"
      (Spec.Behavior.par "top"
         (Spec.Behavior.leaf "G" (s "go <= true;") :: List.init 70 waiter))
  in
  check_program "wide/70-waiters" p

(* --- cooperative cancellation ------------------------------------------ *)

let test_cancellation () =
  (* Cut the run off mid-flight through the poll hook.  Both kernels must
     report Cancelled.  Their rounds differ, so the partial runs are not
     comparable across kernels; instead the engine's cut must land on the
     same round every time, so a second run — in the session the first
     one left cancelled — must reproduce the partial run bit for bit. *)
  let p = refined Core.Model.Model2 Designs.design1 in
  let hooks_of (_ : kernel) =
    let polls = ref 0 in
    {
      Sim.Engine.no_hooks with
      Sim.Engine.h_poll =
        Some
          (fun () ->
            incr polls;
            !polls > 40);
    }
  in
  let vm, r = run_both ~hooks_of p in
  List.iter
    (fun (k, res) ->
      Alcotest.(check string)
        (kernel_name k ^ " cancelled")
        "cancelled"
        (Sim.Engine.outcome_to_string res.Sim.Engine.r_outcome))
    [ (`Vm, vm); (`Reference, r) ];
  check_same "cancel/partial-run" `Vm `Vm vm
    (run_kernel ~hooks:(hooks_of `Vm) `Vm p)

(* --- weak memory orderings --------------------------------------------- *)

let test_orderings () =
  (* A (policy, seed, program) triple must replay bit-identically on
     both kernels.  Signals are grouped into two ports by leading
     character; everything else stays sequentially consistent. *)
  let p = refined Core.Model.Model2 Designs.design1 in
  let port_of name =
    if String.length name = 0 then None
    else if name.[0] < 'm' then Some "lo"
    else Some "hi"
  in
  List.iter
    (fun policy ->
      let ordering_of (_ : kernel) =
        Sim.Memord.make ~policy ~seed:11 ~port_of
      in
      let vm, r = run_both ~ordering_of p in
      check_same
        ("ordering/" ^ Sim.Memord.policy_to_string policy)
        `Vm `Reference vm r)
    [ Sim.Memord.Sc; Sim.Memord.Per_port_fifo; Sim.Memord.Relaxed 2 ]

(* --- fault injection under both kernels -------------------------------- *)

let test_fault_hooks () =
  let prog = refined Core.Model.Model2 Designs.design1 in
  let golden = Sim.Engine.run ~config:diff_config prog in
  (* Pick real handshake signals from the golden run's committed updates. *)
  let committed =
    List.concat_map (fun (_, cs) -> List.map fst cs) golden.Sim.Engine.r_signal_trace
    |> List.sort_uniq compare
  in
  let pick i = List.nth committed (i mod List.length committed) in
  let fault_sets =
    [
      [ Faults.Fault.Drop_update { du_signal = pick 0; du_occurrence = 2 } ];
      [
        Faults.Fault.Delay_update
          { dl_signal = pick 1; dl_occurrence = 1; dl_deltas = 3 };
      ];
      [
        Faults.Fault.Stuck_at
          { st_signal = pick 2; st_value = Spec.Ast.VBool true; st_delta = 5 };
      ];
      [
        Faults.Fault.Drop_update { du_signal = pick 3; du_occurrence = 1 };
        Faults.Fault.Delay_update
          { dl_signal = pick 4; dl_occurrence = 2; dl_deltas = 2 };
      ];
    ]
  in
  (* Bound faulty runs like the campaign does: a dropped handshake can hang
     the design, which must classify identically, not run forever. *)
  let config =
    {
      diff_config with
      Sim.Engine.max_deltas = (golden.Sim.Engine.r_deltas * 10) + 50_000;
    }
  in
  List.iteri
    (fun i faults ->
      let vm, r =
        (* hooks carry mutable occurrence counters: fresh per kernel *)
        run_both ~config
          ~hooks_of:(fun _ -> Faults.Inject.hooks faults)
          prog
      in
      check_same (Printf.sprintf "faults/set-%d" i) `Vm `Reference vm r;
      let classify res =
        Faults.Campaign.outcome_name
          (Faults.Campaign.classify ~storage:[] ~golden res)
      in
      Alcotest.(check string)
        (Printf.sprintf "faults/set-%d classification vm=reference" i)
        (classify r) (classify vm))
    fault_sets

(* Whole campaigns under both kernels: every (seed, class) run of a
   multi-class campaign must classify identically, on the unhardened
   Design1/Model2 refinement and on its hardened twin. *)
let test_campaigns () =
  let config =
    { Faults.Campaign.default_config with Faults.Campaign.cf_seeds = 4 }
  in
  let polling ~config ~hooks ?ordering p =
    Sim.Reference.run ~config ~hooks ?ordering p
  in
  let classifications (rp : Faults.Campaign.report) =
    List.map
      (fun (rn : Faults.Campaign.run) ->
        ( rn.run_seed,
          Faults.Fault.cls_name rn.run_class,
          Faults.Campaign.outcome_name rn.run_outcome ))
      rp.rp_runs
  in
  List.iter
    (fun harden ->
      let label = if harden then "hardened" else "unhardened" in
      let design =
        Core.Refiner.refine
          ~options:{ Core.Refiner.default_options with harden }
          Medical.spec Medical.graph Designs.design1.Designs.d_partition
          Core.Model.Model2
      in
      let vm = Faults.Campaign.run ~config design in
      let r = Faults.Campaign.run ~config ~simulate:polling design in
      Alcotest.(check (list (triple int string string)))
        (label ^ " classifications vm=reference")
        (classifications r) (classifications vm);
      Alcotest.(check (float 0.0))
        (label ^ " robustness vm=reference")
        r.rp_robustness vm.rp_robustness)
    [ false; true ]

(* --- procedure calls ------------------------------------------------------ *)

(* The VM keeps the frame and compiled body of a call site's first call
   and re-enters them on later calls; the reference builds a fresh frame
   for every call.  These programs call through the same sites again and
   again, so a pooled frame that keeps a stale local, clobbers an aliased
   out-argument or serves the wrong activation shows as a divergence. *)

let int_ty = Spec.Ast.TInt 16

let proc ?vars name params body =
  Spec.Builder.proc ?vars ~params name (s body)

let pin = Spec.Builder.param_in
let pout x = Spec.Builder.param_out x int_ty

let call_procs =
  [
    proc "set" [ pin "v" int_ty; pout "r" ] "r := v;";
    (* one call site, reached from every caller frame of [via], its out
       argument aliasing whichever cell that caller passed *)
    proc "via" [ pin "v" int_ty; pout "q" ] "call set(v + 1, out q);";
    proc "acc"
      ~vars:[ Spec.Builder.int_var ~init:10 "s" ]
      [ pin "v" int_ty; pout "r" ]
      "s := s + v; r := s;";
    proc "maybe"
      [ pin "c" Spec.Ast.TBool; pout "r" ]
      "if c then r := 7; end if;";
    proc "fact"
      ~vars:[ Spec.Builder.int_var ~init:0 "t" ]
      [ pin "n" int_ty; pout "r" ]
      "if n <= 1 then r := 1; \
       else call fact(n - 1, out t); r := n * t; end if;";
    (* parameters shadowing a local or another parameter *)
    proc "shadow"
      ~vars:[ Spec.Builder.int_var ~init:100 "n" ]
      [ pin "n" int_ty; pout "r" ]
      "r := n; n := n + 1;";
    proc "bump"
      ~vars:[ Spec.Builder.int_var ~init:5 "r" ]
      [ pout "r" ]
      "r := r + 1;";
    proc "dup" [ pin "x" int_ty; pout "x" ] "x := x + 1;";
    (* runs that end inside a call: blocked forever, or out of steps *)
    proc "hold"
      ~vars:[ Spec.Builder.int_var ~init:0 "k" ]
      [ pout "r" ]
      "k := k + 1; r := k; emit \"k\" k; wait until go;";
    proc "spin"
      ~vars:[ Spec.Builder.int_var ~init:0 "k" ]
      [ pout "r" ]
      "while k < 40 do k := k + 1; r := k; end while;";
    proc "idx"
      ~vars:[ Spec.Builder.var "arr" (Spec.Ast.TArray (16, 2)) ]
      [ pin "i" int_ty; pout "r" ]
      "arr[i] := i; r := arr[i];";
  ]

let calls_program name leaves =
  Spec.Program.make
    ~signals:
      [
        Spec.Builder.bool_signal "go";
        Spec.Builder.int_signal ~init:(-1) "tick";
        Spec.Builder.int_signal ~init:(-1) "tock";
      ]
    ~procs:call_procs name
    (Spec.Behavior.par "top"
       (List.map
          (fun (leaf, vars, body) ->
            Spec.Behavior.leaf
              ~vars:(List.map (fun x -> Spec.Builder.int_var ~init:0 x) vars)
              leaf (s body))
          leaves))

(* A result or the exception's text, per kernel. *)
let attempt k p =
  match run_kernel k p with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let check_attempts label p =
  match (attempt `Vm p, attempt `Reference p) with
  | Ok vm, Ok r -> check_same label `Vm `Reference vm r
  | Error a, Error b -> Alcotest.(check string) (label ^ " error") b a
  | Ok _, Error e -> Alcotest.failf "%s: only the reference raised: %s" label e
  | Error e, Ok _ -> Alcotest.failf "%s: only the engine raised: %s" label e

let test_procedure_calls () =
  let p =
    calls_program "calls"
      [
        ( "P",
          [ "i"; "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ],
          "for i := 0 to 3 do call via(i, out a); call via(i + 5, out h); \
           call acc(i, out b); call maybe(i = 0, out c); \
           call fact(i + 2, out d); call shadow(i, out e); call bump(out f); \
           call dup(i, out g); emit \"p\" a; emit \"p\" h; emit \"p\" b; \
           emit \"p\" c; emit \"p\" d; emit \"p\" e; emit \"p\" f; \
           emit \"p\" g; tick <= i; wait until tick = i; end for;" );
        ( "Q",
          [ "j"; "x" ],
          "for j := 0 to 3 do call via(10 * j, out x); call fact(j, out x); \
           emit \"q\" x; tock <= j; wait until tock = j; end for;" );
      ]
  in
  check_program "calls/re-calls" p;
  (* A run that ends inside a call, then a rewind of the engine's
     session and a rerun through the same sites. *)
  let held =
    calls_program "calls-held"
      [
        ("R", [ "w" ], "call hold(out w);");
        ("S", [ "w" ], "call spin(out w); call hold(out w);");
      ]
  in
  for i = 1 to 2 do
    check_program (Printf.sprintf "calls/deadlocked-in-call-%d" i) held
  done;
  let sliced = { diff_config with Sim.Engine.slice = 16 } in
  let cut = { sliced with Sim.Engine.max_steps = 60 } in
  List.iteri
    (fun i config ->
      check_program ~config (Printf.sprintf "calls/rerun-after-cut-%d" i) held)
    [ cut; sliced; cut; sliced ];
  (* Dynamic errors raised at and inside calls, on a first run and after
     a re-call. *)
  List.iter
    (fun (label, body) ->
      let p =
        calls_program ("calls-" ^ label) [ ("L", [ "w"; "z"; "i" ], body) ]
      in
      check_attempts ("calls/" ^ label) p;
      check_attempts ("calls/" ^ label ^ " again") p)
    [
      ("unknown-procedure", "call nosuch(1);");
      ("wrong-arity", "call set(1);");
      ("out-not-a-variable", "call set(1, out nosuch);");
      ("expression-to-out", "call set(1, 2);");
      ("unbound-in-argument", "call set(out nosuch, out w);");
      ("argument-error", "call set(1 / z, out w);");
      ("error-on-a-re-call", "for i := 0 to 3 do call idx(i, out w); end for;");
    ]

(* --- speed: the event-driven kernel against the polling one ------------ *)

(* On the refined medical Design1/Model2 program the polling kernel must
   be more than 2.4x slower per run: the engine's old 1.5x margin over a
   reference that staged closures and pooled frames, times the 1.59x the
   reference slowed down when it lost them (rounded up, so the engine's
   required margin did not shrink).  Each kernel gets 3 warm-up runs
   (which also prime the engine's session cache), then the mean wall time
   per run over at least 0.3 s of runs, measured in alternating 50 ms
   slices so that host drift hits both kernels alike. *)
let test_engine_speedup () =
  let p = refined Core.Model.Model2 Designs.design1 in
  let engine () = Sim.Engine.run p and polling () = Sim.Reference.run p in
  List.iter
    (fun f ->
      for _ = 1 to 3 do
        ignore (Sys.opaque_identity (f ()))
      done)
    [ engine; polling ];
  let slice f (secs, runs) =
    let t0 = Unix.gettimeofday () in
    let n = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.05 do
      ignore (Sys.opaque_identity (f ()));
      incr n
    done;
    (secs +. (Unix.gettimeofday () -. t0), runs + !n)
  in
  let rec measure e r =
    if fst e >= 0.3 && fst r >= 0.3 then (e, r)
    else measure (slice engine e) (slice polling r)
  in
  let us_per_run (secs, runs) = secs *. 1e6 /. float_of_int runs in
  let e, r = measure (0.0, 0) (0.0, 0) in
  let speedup = us_per_run r /. us_per_run e in
  Alcotest.(check bool)
    (Printf.sprintf "polling %.1f us / engine %.1f us per run = %.2fx > 2.4x"
       (us_per_run r) (us_per_run e) speedup)
    true (speedup > 2.4)

(* --- scheduler-level unit tests ---------------------------------------- *)

(* A waiter parked on [go] plus a ticker that commits [n] unrelated delta
   cycles before finally raising [go].  Every wait condition reads only
   signals (a condition that reads frame variables would be polled, not
   parked), so wakes are exactly countable: the ticker is woken by each
   of its [n] handshake commits, the waiter once by the [go] commit. *)
let ticker_prog n =
  let body =
    String.concat " "
      (List.init n (fun k ->
           Printf.sprintf "tick <= %d; wait until tick = %d;" k k))
    ^ " go <= true;"
  in
  Spec.Program.make
    ~signals:
      [
        Spec.Builder.bool_signal "go";
        Spec.Builder.int_signal ~init:(-1) "tick";
      ]
    ~vars:[ Spec.Builder.int_var ~init:0 "seen" ]
    "ticker"
    (Spec.Behavior.par "top"
       [
         Spec.Behavior.leaf "W" (s "wait until go = true; seen := 1;");
         Spec.Behavior.leaf "T" (s body);
       ])

let test_wait_set_wakeup () =
  let p = ticker_prog 20 in
  let r, st = Sim.Engine.run_stats ~config:diff_config p in
  Alcotest.(check string)
    "completes" "completed"
    (Sim.Engine.outcome_to_string r.Sim.Engine.r_outcome);
  Alcotest.(check (list (pair string value_testable)))
    "waiter ran" [ ("seen", Spec.Ast.VInt 1) ]
    (List.filter (fun (n, _) -> n = "seen") r.Sim.Engine.r_final);
  (* The ticker parks 20 times, the waiter once: each park is released by
     exactly one wake, triggered by the commit of a waited signal. *)
  Alcotest.(check int) "one wake per park" 21 st.Sim.Engine.st_wakes

let test_no_busy_polling () =
  (* While the ticker churns out unrelated commits, the parked waiter must
     not be revisited: with two leaves, busy-polling would activate both
     every round (about [2 * rounds] activations); the event-driven queue
     activates at most one — the woken ticker — plus the waiter's initial
     park and final wake. *)
  let p = ticker_prog 20 in
  let _, st = Sim.Engine.run_stats ~config:diff_config p in
  Alcotest.(check bool)
    (Printf.sprintf "no busy-polling (%d leaf runs in %d rounds)"
       st.Sim.Engine.st_leaf_runs st.Sim.Engine.st_rounds)
    true
    (st.Sim.Engine.st_leaf_runs < st.Sim.Engine.st_rounds)

let test_interned_id_stability () =
  (* Ids are assigned in sorted name order (last duplicate declaration
     wins), are dense, survive scheduling activity, and ascending-id
     iteration reproduces the name-sorted snapshot order. *)
  let decl ?init name = { Spec.Ast.s_name = name; s_ty = Spec.Ast.TInt 16; s_init = init } in
  let t =
    Sim.Sigtable.make
      [
        decl ~init:(Spec.Ast.VInt 7) "zeta";
        decl "alpha";
        decl ~init:(Spec.Ast.VInt 1) "mid";
        decl ~init:(Spec.Ast.VInt 2) "alpha" (* duplicate: this one wins *);
      ]
  in
  Alcotest.(check int) "dense" 3 (Sim.Sigtable.n_signals t);
  let id name =
    match Sim.Sigtable.id_of t name with
    | Some i -> i
    | None -> Alcotest.failf "no id for %s" name
  in
  Alcotest.(check (list int)) "sorted name order" [ 0; 1; 2 ]
    [ id "alpha"; id "mid"; id "zeta" ];
  List.iter
    (fun n -> Alcotest.(check string) "name_of inverts id_of" n
        (Sim.Sigtable.name_of t (id n)))
    [ "alpha"; "mid"; "zeta" ];
  Alcotest.(check (list (pair string value_testable)))
    "snapshot is name-sorted, duplicate resolved"
    [ ("alpha", Spec.Ast.VInt 2); ("mid", Spec.Ast.VInt 1); ("zeta", Spec.Ast.VInt 7) ]
    (Sim.Sigtable.snapshot t);
  (* Scheduling out of id order commits ascending and leaves ids intact. *)
  Sim.Sigtable.schedule_id t (id "zeta") (Spec.Ast.VInt 8);
  Sim.Sigtable.schedule_id t (id "alpha") (Spec.Ast.VInt 3);
  Alcotest.(check (list int)) "commit ascending" [ id "alpha"; id "zeta" ]
    (Sim.Sigtable.commit_ids t);
  Alcotest.(check (list int)) "ids stable across commits" [ 0; 1; 2 ]
    [ id "alpha"; id "mid"; id "zeta" ];
  Sim.Sigtable.reset t;
  Alcotest.(check (list (pair string value_testable)))
    "reset restores declaration values"
    [ ("alpha", Spec.Ast.VInt 2); ("mid", Spec.Ast.VInt 1); ("zeta", Spec.Ast.VInt 7) ]
    (Sim.Sigtable.snapshot t)

(* --- session reuse ------------------------------------------------------ *)

(* The engine keeps one elaborated session per program and rewinds it in
   place between runs.  Reuse must be observationally
   invisible: repeat runs bit-identical to the first, and a clean run
   after a faulted (or step-limited, or crashed) one identical to a cold
   clean run. *)

let test_session_repeat () =
  let p = refined Core.Model.Model2 Designs.design1 in
  let cold = Sim.Engine.run ~config:diff_config p in
  for i = 1 to 3 do
    check_same
      (Printf.sprintf "session/repeat-%d" i)
      `Vm `Vm
      (Sim.Engine.run ~config:diff_config p)
      cold
  done;
  check_same "session/vs-reference" `Vm `Reference cold
    (Sim.Reference.run ~config:diff_config p)

let test_session_after_fault () =
  let p = refined Core.Model.Model2 Designs.design1 in
  let cold = Sim.Engine.run ~config:diff_config p in
  let sig0 =
    match cold.Sim.Engine.r_signal_trace with
    | (_, (name, _) :: _) :: _ -> name
    | _ -> Alcotest.fail "no committed signals"
  in
  let faults =
    [ Faults.Fault.Drop_update { du_signal = sig0; du_occurrence = 1 } ]
  in
  let config =
    { diff_config with Sim.Engine.max_deltas = (cold.Sim.Engine.r_deltas * 10) + 50_000 }
  in
  let _faulted = Sim.Engine.run ~config ~hooks:(Faults.Inject.hooks faults) p in
  (* The rewound session must carry no residue of the faulted run: no
     intercept, no poked values, no stale park state. *)
  check_same "session/clean-after-fault" `Vm `Vm
    (Sim.Engine.run ~config:diff_config p)
    cold

let test_session_after_step_limit () =
  let p = refined Core.Model.Model2 Designs.design1 in
  let cold = Sim.Engine.run ~config:diff_config p in
  let cut = { diff_config with Sim.Engine.max_steps = cold.Sim.Engine.r_steps / 3 } in
  let limited = Sim.Engine.run ~config:cut p in
  Alcotest.(check string)
    "cut mid-flight" "step limit exceeded"
    (Sim.Engine.outcome_to_string limited.Sim.Engine.r_outcome);
  check_same "session/clean-after-limit" `Vm `Vm
    (Sim.Engine.run ~config:diff_config p)
    cold

let test_session_after_run_error () =
  (* A leaf that mutates its frame and then dies on a dynamic error.  If
     a re-run saw the mutated cell — a cached session rewound without
     resetting frames, or a crashed session left in the cache — the
     guard would be skipped and the second run would complete.  It must
     fail exactly like the first, on both kernels, and the kernels must
     agree on the error. *)
  let p =
    Spec.Program.make
      ~vars:
        [
          Spec.Builder.int_var ~init:0 "flag";
          Spec.Builder.int_var ~init:0 "zero";
          Spec.Builder.int_var ~init:0 "ok";
        ]
      "crash"
      (Spec.Behavior.leaf "L"
         (s "if flag = 0 then flag := 1; ok := 1 / zero; end if; ok := 2;"))
  in
  let attempt k =
    match run_kernel k p with
    | (_ : Sim.Engine.result) ->
      Alcotest.failf "%s: run completed instead of failing" (kernel_name k)
    | exception e -> Printexc.to_string e
  in
  let first_vm = attempt `Vm in
  List.iter
    (fun k ->
      Alcotest.(check string)
        (kernel_name k ^ ": re-run fails identically (no stale frame cells)")
        (attempt k) (attempt k))
    [ `Vm; `Reference ];
  Alcotest.(check string) "reference agrees on the error"
    (attempt `Reference) first_vm;
  (* And the crashed entries must not poison later clean runs of other
     programs through the shared cache. *)
  check_program "session/clean-after-crash" Medical.spec

(* --- checkpoints ---------------------------------------------------------- *)

(* A run whose hooks promise to act on nothing before delta [q] starts
   from the latest checkpoint at or before [q]; its result and scheduler
   counters must be those of a run from delta 0 (a physically distinct
   copy of the program has its own session, so its first run is one) and
   of the polling kernel, which always replays from 0. *)

let fresh_copy (p : Spec.Ast.program) =
  { p with Spec.Ast.p_name = p.Spec.Ast.p_name }

(* Hooks that act on nothing and say so: a run under them records
   checkpoints along its whole length. *)
let inert = { Sim.Engine.no_hooks with Sim.Engine.h_fault_from = Some max_int }

(* Resumed, cold and polling runs of [p] under fresh [hooks ()] each:
   equal results (or the same exception), and equal counters for the two
   engine runs.  The caller has recorded checkpoints in [p]'s session. *)
let resumed_agrees ?(config = diff_config) p hooks =
  let attempt f =
    match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)
  in
  let engine p () = Sim.Engine.run_stats ~config ~hooks:(hooks ()) p in
  let resumed = attempt (engine p) in
  let cold = attempt (engine (fresh_copy p)) in
  let reference =
    attempt (fun () -> Sim.Reference.run ~config ~hooks:(hooks ()) p)
  in
  match (resumed, cold, reference) with
  | Ok (a, sa), Ok (b, sb), Ok c ->
    if a <> b then Error "resumed and cold runs differ"
    else if sa <> sb then
      Error
        (Printf.sprintf
           "scheduler counters differ: resumed %d rounds %d runs %d wakes, \
            cold %d rounds %d runs %d wakes"
           sa.Sim.Engine.st_rounds sa.Sim.Engine.st_leaf_runs
           sa.Sim.Engine.st_wakes sb.Sim.Engine.st_rounds
           sb.Sim.Engine.st_leaf_runs sb.Sim.Engine.st_wakes)
    else if a <> c then Error "engine and polling kernel differ"
    else Ok ()
  | Error a, Error b, Error c when a = b && b = c -> Ok ()
  | _ -> Error "a run raised where another did not"

let check_resumed label ?config p hooks =
  match resumed_agrees ?config p hooks with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" label m

(* A faulty run's budget, as the campaign sets it. *)
let campaign_budget (golden : Sim.Engine.result) =
  {
    diff_config with
    Sim.Engine.max_deltas = (golden.Sim.Engine.r_deltas * 10) + 50_000;
  }

(* The medical Design1/Model2 refinement, its golden commit schedule and
   its fault targets. *)
let checkpoint_case () =
  let r =
    Core.Refiner.refine Medical.spec Medical.graph
      Designs.design1.Designs.d_partition Core.Model.Model2
  in
  let p = r.Core.Refiner.rf_program in
  let hooks, schedule = Faults.Inject.counting () in
  let golden = Sim.Engine.run ~config:diff_config ~hooks p in
  let occurrences = Faults.Inject.occurrences schedule in
  let targets = Faults.Campaign.enumerate r occurrences in
  let config = campaign_budget golden in
  (p, golden, schedule, occurrences, targets, config)

let test_checkpoint_boundaries () =
  let p, golden, schedule, occurrences, targets, config =
    checkpoint_case ()
  in
  ignore (Sim.Engine.run ~config ~hooks:inert p);
  let every = Sim.Engine.checkpoint_spacing in
  let held = Sim.Engine.checkpoint_deltas p in
  Alcotest.(check bool)
    (Printf.sprintf "checkpoints every %d deltas over %d (held: %s)" every
       golden.Sim.Engine.r_deltas
       (String.concat "," (List.map string_of_int held)))
    true
    (held = List.init (golden.Sim.Engine.r_deltas / every) (fun i -> (i + 1) * every));
  let var, _ = List.hd targets.Faults.Campaign.tg_storage in
  let line, _ = List.hd targets.Faults.Campaign.tg_lines in
  let handshake = List.hd targets.Faults.Campaign.tg_handshakes in
  let flip d =
    Faults.Fault.Flip_bit { fl_var = var; fl_bit = 0; fl_delta = d }
  in
  let stuck d =
    Faults.Fault.Stuck_at
      { st_signal = line; st_value = Spec.Ast.VBool true; st_delta = d }
  in
  let drop k =
    Faults.Fault.Drop_update { du_signal = handshake; du_occurrence = k }
  in
  let cases =
    [
      (* acts right after the commit a checkpoint follows: that checkpoint
         is too late, the one before it is used *)
      ("flip at a checkpoint delta", [ flip (2 * every) ]);
      (* acts one delta later: resumes from that checkpoint exactly *)
      ("flip one after a checkpoint delta", [ flip ((2 * every) + 1) ]);
      ("flip before the first checkpoint", [ flip every ]);
      ("stuck-at from delta 0", [ stuck 0 ]);
      ("stuck-at from a checkpoint delta", [ stuck (3 * every) ]);
      ("drop of occurrence 1", [ drop 1 ]);
      ( "drop of the last occurrence",
        [ drop (Hashtbl.find occurrences handshake) ] );
      ("drop and a later flip", [ drop 3; flip (5 * every) ]);
    ]
  in
  List.iter
    (fun (label, faults) ->
      check_resumed label ~config p (fun () ->
          Faults.Inject.hooks ~golden:schedule faults))
    cases;
  (* Another trace setting drops the checkpoints and records anew. *)
  let untraced = { config with Sim.Engine.trace_signals = false } in
  check_resumed "untraced, first run" ~config:untraced p (fun () ->
      Faults.Inject.hooks ~golden:schedule [ flip ((3 * every) + 1) ]);
  check_resumed "untraced, resumed" ~config:untraced p (fun () ->
      Faults.Inject.hooks ~golden:schedule [ flip ((4 * every) + 1) ])

let test_checkpoint_cancelled () =
  let p, _, schedule, _, targets, config = checkpoint_case () in
  ignore (Sim.Engine.run ~config ~hooks:inert p);
  let var, _ = List.hd targets.Faults.Campaign.tg_storage in
  let faults =
    [ Faults.Fault.Flip_bit { fl_var = var; fl_bit = 1; fl_delta = 300 } ]
  in
  let polled after () =
    let polls = ref 0 in
    {
      (Faults.Inject.hooks ~golden:schedule faults) with
      Sim.Engine.h_poll =
        Some
          (fun () ->
            incr polls;
            !polls > after);
    }
  in
  List.iter
    (fun after ->
      let r = Sim.Engine.run ~config ~hooks:(polled after ()) p in
      Alcotest.(check string)
        (Printf.sprintf "cancelled after %d polls" after)
        "cancelled"
        (Sim.Engine.outcome_to_string r.Sim.Engine.r_outcome))
    [ 0; 25 ];
  Alcotest.(check bool) "checkpoints survive a cancelled run" true
    (Sim.Engine.checkpoint_deltas p <> []);
  check_resumed "resumed after a cancelled resume" ~config p (fun () ->
      Faults.Inject.hooks ~golden:schedule faults)

let test_checkpoint_evicted () =
  let p, _, schedule, _, targets, config = checkpoint_case () in
  ignore (Sim.Engine.run ~config ~hooks:inert p);
  Alcotest.(check bool) "recorded" true (Sim.Engine.checkpoint_deltas p <> []);
  for _ = 1 to Sim.Engine.session_cap () do
    ignore (Sim.Engine.run ~config (fresh_copy p))
  done;
  Alcotest.(check (list int))
    "evicted with the session" [] (Sim.Engine.checkpoint_deltas p);
  let var, _ = List.hd targets.Faults.Campaign.tg_storage in
  let faults =
    [ Faults.Fault.Flip_bit { fl_var = var; fl_bit = 2; fl_delta = 500 } ]
  in
  check_resumed "cold again after eviction" ~config p (fun () ->
      Faults.Inject.hooks ~golden:schedule faults);
  check_resumed "resumed in the new session" ~config p (fun () ->
      Faults.Inject.hooks ~golden:schedule faults)

(* The store is least recently used first out: a program run between
   every insertion keeps its session, and its checkpoints, past any
   number of newer programs. *)
let test_checkpoint_lru () =
  let p, _, _, _, _, config = checkpoint_case () in
  ignore (Sim.Engine.run ~config ~hooks:inert p);
  let held = Sim.Engine.checkpoint_deltas p in
  Alcotest.(check bool) "recorded" true (held <> []);
  for _ = 1 to Sim.Engine.session_cap () + 1 do
    ignore (Sim.Engine.run ~config (fresh_copy p));
    ignore (Sim.Engine.run ~config p)
  done;
  Alcotest.(check (list int)) "kept past the cap" held
    (Sim.Engine.checkpoint_deltas p)

(* Refined generated specs (Model2 or Model4 by seed parity) under a
   random fault acting from a random delta [q]: a bit flip right after
   [q], a stuck line from [q], a dropped occurrence (its golden delta is
   [q]), or inert hooks that only promise [q]. *)
let refined_generated seed =
  let p =
    Workloads.Generator.program
      { Workloads.Generator.default_config with gen_seed = seed }
  in
  let g = Agraph.Access_graph.of_program p in
  let part = Workloads.Generator.random_partition ~seed g ~n_parts:2 in
  let model = if seed mod 2 = 0 then Core.Model.Model2 else Core.Model.Model4 in
  (p, Core.Refiner.refine p g part model)

let prop_resume_agrees =
  QCheck.Test.make ~count:40
    ~name:"resumed engine = cold engine = Reference on refined specs"
    QCheck.(
      make
        Gen.(triple (int_range 1 10_000) (int_bound 3) (int_bound 1_000_000)))
    (fun (seed, kind, pick) ->
      let _, r = refined_generated seed in
      let p = r.Core.Refiner.rf_program in
      let golden_hooks, schedule = Faults.Inject.counting () in
      let golden = Sim.Engine.run ~config:diff_config ~hooks:golden_hooks p in
      let occurrences = Faults.Inject.occurrences schedule in
      let targets = Faults.Campaign.enumerate r occurrences in
      let q = pick mod max 1 golden.Sim.Engine.r_deltas in
      let nth l = List.nth l (pick mod List.length l) in
      let faults =
        match kind with
        | 0 when targets.Faults.Campaign.tg_storage <> [] ->
          let var, w = nth targets.Faults.Campaign.tg_storage in
          [
            Faults.Fault.Flip_bit
              { fl_var = var; fl_bit = pick mod max 1 w; fl_delta = q + 1 };
          ]
        | 1 when targets.Faults.Campaign.tg_lines <> [] ->
          let s, w = nth targets.Faults.Campaign.tg_lines in
          let v =
            if w = 0 then Spec.Ast.VBool (pick mod 2 = 0)
            else Spec.Ast.VInt (pick mod 4)
          in
          [
            Faults.Fault.Stuck_at { st_signal = s; st_value = v; st_delta = q };
          ]
        | 2 when targets.Faults.Campaign.tg_handshakes <> [] ->
          let s = nth targets.Faults.Campaign.tg_handshakes in
          [
            Faults.Fault.Drop_update
              {
                du_signal = s;
                du_occurrence = 1 + (pick mod Hashtbl.find occurrences s);
              };
          ]
        | _ -> []
      in
      let hooks () =
        if faults = [] then
          { Sim.Engine.no_hooks with Sim.Engine.h_fault_from = Some q }
        else Faults.Inject.hooks ~golden:schedule faults
      in
      let config = campaign_budget golden in
      ignore (Sim.Engine.run ~config ~hooks:inert p);
      match resumed_agrees ~config p hooks with
      | Ok () -> true
      | Error m ->
        QCheck.Test.fail_reportf "seed %d, q %d [%s]: %s" seed q
          (String.concat "; " (List.map Faults.Fault.describe faults))
          m)

(* --- the golden memo ------------------------------------------------------- *)

(* A run whose only hooks are a commit log is served from its session's
   golden memo when its config matches the stored run's.  A hit must be
   indistinguishable from a fresh session's run — result, scheduler
   counters and log — and the engine's log must equal the polling
   kernel's, which never serves a stored run. *)

let golden_counts () =
  let st = Sim.Engine.sessions_stats () in
  (st.Sim.Engine.se_golden_hits, st.Sim.Engine.se_golden_misses)

(* One engine run with a fresh commit log added to [hooks]: its result,
   counters, log, and whether the memo served it. *)
let logged_run ?(config = diff_config) ?(hooks = Sim.Engine.no_hooks) ?ordering
    p =
  let log = Sim.Commit_log.create () in
  let hits, _ = golden_counts () in
  let r, st =
    Sim.Engine.run_stats ~config
      ~hooks:{ hooks with Sim.Engine.h_log = Some log }
      ?ordering p
  in
  (r, st, Sim.Commit_log.to_list log, fst (golden_counts ()) > hits)

let hardened d m =
  let options = { Core.Refiner.default_options with harden = true } in
  (Core.Refiner.refine ~options Medical.spec Medical.graph d.Designs.d_partition
     m)
    .Core.Refiner.rf_program

let golden_cases () =
  List.concat_map
    (fun d ->
      List.map
        (fun m ->
          ( Printf.sprintf "%s/%s" d.Designs.d_name (Core.Model.name m),
            hardened d m ))
        Core.Model.all)
    Designs.all
  @ [ ("generated/7", (snd (refined_generated 7)).Core.Refiner.rf_program) ]

let hardened_model2 () = hardened Designs.design1 Core.Model.Model2

let check_hit label ~expected hit =
  Alcotest.(check bool) (label ^ ": served from the memo") expected hit

let test_golden_hit () =
  List.iter
    (fun (label, p) ->
      ignore (logged_run p);
      let r, st, log, hit = logged_run p in
      check_hit label ~expected:true hit;
      let fr, fst, flog, fhit = logged_run (fresh_copy p) in
      check_hit (label ^ " (fresh session)") ~expected:false fhit;
      check_same label `Vm `Vm r fr;
      Alcotest.(check bool) (label ^ ": same counters") true (st = fst);
      Alcotest.(check bool) (label ^ ": same log") true (log = flog);
      let rlog = Sim.Commit_log.create () in
      let rr =
        Sim.Reference.run ~config:diff_config
          ~hooks:{ Sim.Engine.no_hooks with Sim.Engine.h_log = Some rlog }
          p
      in
      check_same label `Vm `Reference r rr;
      Alcotest.(check bool)
        (label ^ ": engine log = reference log")
        true
        (log = Sim.Commit_log.to_list rlog && log <> []))
    (golden_cases ())

let test_golden_keys () =
  let p = hardened_model2 () in
  ignore (logged_run p);
  let _, _, _, hit = logged_run p in
  check_hit "same config" ~expected:true hit;
  (* Each config differs from the one stored before it, and each miss
     must still be the run a fresh session gives. *)
  List.iter
    (fun (label, config) ->
      let r, st, log, hit = logged_run ~config p in
      check_hit label ~expected:false hit;
      let fr, fst, flog, _ = logged_run ~config (fresh_copy p) in
      check_same label `Vm `Vm r fr;
      Alcotest.(check bool) (label ^ ": same counters and log") true
        (st = fst && log = flog))
    [
      ( "another max_deltas",
        { diff_config with Sim.Engine.max_deltas = diff_config.max_deltas - 1 } );
      ("another slice", { diff_config with Sim.Engine.slice = 77 });
      ("another trace setting", { diff_config with Sim.Engine.trace_signals = false });
    ];
  (* The memo leaves with its session. *)
  for _ = 1 to Sim.Engine.session_cap () do
    ignore (Sim.Engine.run ~config:diff_config (fresh_copy p))
  done;
  let _, _, _, hit = logged_run p in
  check_hit "after eviction" ~expected:false hit

let test_golden_never () =
  let p = hardened_model2 () in
  ignore (logged_run p);
  let pass = Some (fun ~delta:_ _ _ -> Sim.Sigtable.Pass) in
  let sc () =
    Sim.Memord.make ~policy:Sim.Memord.Sc ~seed:1 ~port_of:(fun _ -> None)
  in
  List.iter
    (fun (label, hooks, ordering) ->
      let _, _, _, hit = logged_run ~hooks ?ordering p in
      check_hit label ~expected:false hit)
    [
      ("with an ordering", Sim.Engine.no_hooks, Some (sc ()));
      ( "with an intercept",
        { Sim.Engine.no_hooks with Sim.Engine.h_intercept = pass },
        None );
      ( "with a post-commit hook",
        { Sim.Engine.no_hooks with Sim.Engine.h_on_commit = Some ignore },
        None );
    ];
  (* None of those replaced the stored run. *)
  let _, _, _, hit = logged_run p in
  check_hit "log-only again" ~expected:true hit;
  (* A run that raises is not stored. *)
  let crash =
    Spec.Program.make
      ~vars:[ Spec.Builder.int_var ~init:0 "zero"; Spec.Builder.int_var "ok" ]
      "crash"
      (Spec.Behavior.leaf "L" (s "ok := 1 / zero;"))
  in
  for i = 1 to 2 do
    let hits, misses = golden_counts () in
    (match logged_run crash with
    | _ -> Alcotest.fail "division by zero completed"
    | exception Spec.Expr.Eval_error _ -> ());
    Alcotest.(check (pair int int))
      (Printf.sprintf "raising run %d simulates" i)
      (hits, misses + 1) (golden_counts ())
  done

let test_golden_cancelled () =
  let p = hardened_model2 () in
  let stop = { Sim.Engine.no_hooks with Sim.Engine.h_poll = Some (fun () -> true) } in
  let cancelled label (r, _, _, hit) =
    check_hit label ~expected:false hit;
    Alcotest.(check string) label "cancelled"
      (Sim.Engine.outcome_to_string r.Sim.Engine.r_outcome)
  in
  (* On a warm session: the poll still stops the run. *)
  let warm, _, _, _ = logged_run p in
  cancelled "warm session" (logged_run ~hooks:stop p);
  let r, _, _, hit = logged_run p in
  check_hit "stored run kept" ~expected:true hit;
  check_same "stored run kept" `Vm `Vm r warm;
  (* On a cold session: the cancelled run is not stored. *)
  let q = fresh_copy p in
  cancelled "cold session" (logged_run ~hooks:stop q);
  let _, _, _, hit = logged_run q in
  check_hit "cancelled run not stored" ~expected:false hit

(* --- qcheck: generated specs, both kernels ----------------------------- *)

let prop_kernels_agree =
  QCheck.Test.make ~count:60
    ~name:"VM vs Reference"
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let p, r = refined_generated seed in
      let same (a : Sim.Engine.result) (b : Sim.Engine.result) =
        a.Sim.Engine.r_outcome = b.Sim.Engine.r_outcome
        && a.Sim.Engine.r_trace = b.Sim.Engine.r_trace
        && a.Sim.Engine.r_deltas = b.Sim.Engine.r_deltas
        && a.Sim.Engine.r_steps = b.Sim.Engine.r_steps
        && a.Sim.Engine.r_final = b.Sim.Engine.r_final
        && a.Sim.Engine.r_signal_trace = b.Sim.Engine.r_signal_trace
      in
      let agree p =
        let vm, r = run_both p in
        let untraced =
          Sim.Engine.run
            ~config:{ diff_config with Sim.Engine.trace_signals = false }
            p
        in
        same vm r && same { vm with Sim.Engine.r_signal_trace = [] } untraced
      in
      (* The refinement has signals, waits and procedure calls, so leaves
         park and wake on it. *)
      agree p && agree r.Core.Refiner.rf_program)

let () =
  Alcotest.run "sim-diff"
    [
      ( "kernels",
        [
          tc "four models" test_models;
          tc "three designs" test_designs;
          tc "original workloads" test_workloads;
          tc "deadlock reports" test_deadlock_reports;
          tc "step limit" test_step_limit;
          tc "variable waits" test_variable_waits;
          tc "wide composition" test_wide_composition;
          tc "cancellation" test_cancellation;
          tc "memory orderings" test_orderings;
          tc "fault hooks" test_fault_hooks;
          tc "fault campaigns" test_campaigns;
          tc "procedure calls" test_procedure_calls;
        ] );
      ("speed", [ tc "engine vs polling" test_engine_speedup ]);
      ( "scheduler",
        [
          tc "wait-set wakeup" test_wait_set_wakeup;
          tc "no busy-polling" test_no_busy_polling;
          tc "interned-id stability" test_interned_id_stability;
        ] );
      ( "sessions",
        [
          tc "repeat runs identical" test_session_repeat;
          tc "clean after faulted" test_session_after_fault;
          tc "clean after step limit" test_session_after_step_limit;
          tc "clean after run error" test_session_after_run_error;
        ] );
      ( "checkpoints",
        [
          tc "resume boundaries" test_checkpoint_boundaries;
          tc "cancelled resume" test_checkpoint_cancelled;
          tc "evicted session" test_checkpoint_evicted;
          tc "least recently used evicted" test_checkpoint_lru;
        ] );
      ( "golden memo",
        [
          tc "hit = fresh run = reference" test_golden_hit;
          tc "config is the key" test_golden_keys;
          tc "never with other hooks" test_golden_never;
          tc "poll still cancels" test_golden_cancelled;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_kernels_agree;
          QCheck_alcotest.to_alcotest prop_resume_agrees;
        ] );
    ]
