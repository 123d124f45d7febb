(** Tests for the static-analysis subsystem ([lib/lint]): the
    diagnostics framework, the five lint passes over the hand-seeded
    fixture specs, the migrated checker shims, and the acceptance
    property that every refined medical design lints clean at error
    severity. *)

open Spec
open Ast
open Helpers

let fixture name =
  let path = Filename.concat "fixtures" name in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Parser.program_of_string_exn s

let parse = Parser.program_of_string_exn

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  nn = 0 || go 0

let codes ds = List.map (fun d -> d.Diagnostic.d_code) ds

let with_code c ds =
  List.filter (fun d -> String.equal d.Diagnostic.d_code c) ds

let has_code c ds = with_code c ds <> []

(* --- diagnostics framework --------------------------------------------- *)

let test_diagnostic_order () =
  let d ~code ~sev ?(path = []) msg =
    Diagnostic.make ~code ~severity:sev ~pass:"test" ~path msg
  in
  let ds =
    [
      d ~code:"ZED001" ~sev:Diagnostic.Warning "w";
      d ~code:"ABC002" ~sev:Diagnostic.Error "b";
      d ~code:"ABC001" ~sev:Diagnostic.Info "i";
      d ~code:"ABC001" ~sev:Diagnostic.Error ~path:[ "B" ] "a2";
      d ~code:"ABC001" ~sev:Diagnostic.Error ~path:[ "A" ] "a1";
      d ~code:"ABC001" ~sev:Diagnostic.Error ~path:[ "A" ] "a1";
    ]
  in
  let sorted = Diagnostic.sort ds in
  Alcotest.(check (list string))
    "severity first, then code, then location"
    [ "ABC001"; "ABC001"; "ABC002"; "ZED001"; "ABC001" ]
    (codes sorted);
  Alcotest.(check int) "duplicates collapsed" 5 (List.length sorted);
  Alcotest.(check string) "path breaks ties" "A"
    (Diagnostic.path_string (List.hd sorted))

let test_diagnostic_render () =
  let d =
    Diagnostic.make ~code:"RACE001" ~severity:Diagnostic.Error ~pass:"race"
      ~path:[ "TOP"; "B1" ] ~loc:"x" "variable x is racy"
  in
  let s = Diagnostic.to_string d in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("text has " ^ frag) true (contains s frag))
    [ "error"; "RACE001"; "TOP/B1"; "variable x is racy"; "at x" ];
  let j = Json.to_string (Diagnostic.to_json d) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("json has " ^ frag) true (contains j frag))
    [
      {|"code":"RACE001"|};
      {|"severity":"error"|};
      {|"pass":"race"|};
      {|"loc":"x"|};
    ];
  Alcotest.(check bool) "json escaping" true
    (contains
       (Json.to_string
          (Diagnostic.to_json
             (Diagnostic.make ~code:"X001" ~severity:Diagnostic.Info ~pass:"t"
                "a \"quoted\" thing")))
       {|a \"quoted\" thing|})

(* --- fixture specs: one seeded defect each ----------------------------- *)

let test_fixture_race () =
  let p = fixture "lint_race.sc" in
  Alcotest.(check bool) "input spec detected as pre-refinement" true
    (Lint.Registry.infer_phase p = Lint.Registry.Pre);
  let pre = Lint.Registry.run p in
  (match with_code "RACE001" pre with
  | [ d ] ->
    Alcotest.(check string) "on the shared variable" "shared"
      d.Diagnostic.d_loc;
    Alcotest.(check bool) "warning pre-refinement" true
      (d.Diagnostic.d_severity = Diagnostic.Warning)
  | ds -> Alcotest.failf "expected exactly one RACE001, got %d" (List.length ds));
  Alcotest.(check bool) "no errors pre-refinement" false
    (Diagnostic.has_errors pre);
  let post = Lint.Registry.run ~phase:Lint.Registry.Post p in
  (match with_code "RACE001" post with
  | [ d ] ->
    Alcotest.(check bool) "error post-refinement" true
      (d.Diagnostic.d_severity = Diagnostic.Error)
  | ds -> Alcotest.failf "expected exactly one RACE001, got %d" (List.length ds));
  (* [other] is written in a single branch and accessed nowhere else, so
     it must not be reported as a race. *)
  List.iter
    (fun d -> Alcotest.(check bool) "no race on other" false
        (String.equal d.Diagnostic.d_loc "other"))
    (with_code "RACE001" post)

let test_fixture_handshake () =
  let p = fixture "lint_handshake.sc" in
  Alcotest.(check bool) "refined shape detected as post-refinement" true
    (Lint.Registry.infer_phase p = Lint.Registry.Post);
  let ds = Lint.Registry.run p in
  (match with_code "PROTO002" ds with
  | [ d ] ->
    Alcotest.(check string) "start wire has no waiter" "go_start"
      d.Diagnostic.d_loc
  | l -> Alcotest.failf "expected one PROTO002, got %d" (List.length l));
  (match with_code "PROTO003" ds with
  | [ d ] ->
    Alcotest.(check string) "done wire has no driver" "go_done"
      d.Diagnostic.d_loc
  | l -> Alcotest.failf "expected one PROTO003, got %d" (List.length l));
  Alcotest.(check bool) "unpaired handshakes are errors post-refinement" true
    (List.for_all
       (fun d -> d.Diagnostic.d_severity = Diagnostic.Error)
       (with_code "PROTO002" ds @ with_code "PROTO003" ds))

let test_fixture_arbiter () =
  let p = fixture "lint_arbiter.sc" in
  let ds = Lint.Registry.run ~phase:Lint.Registry.Post p in
  (match with_code "CONT001" ds with
  | [ d ] ->
    Alcotest.(check string) "on the address wire" "b1_addr" d.Diagnostic.d_loc;
    List.iter
      (fun frag ->
        Alcotest.(check bool) (frag ^ " named in the message") true
          (contains d.Diagnostic.d_message frag))
      [ "M1"; "M2" ]
  | l -> Alcotest.failf "expected one CONT001, got %d" (List.length l));
  (* MEM decodes addresses 0 and 1, so the transactions themselves are
     conformant. *)
  Alcotest.(check bool) "served addresses raise no PROTO001" false
    (has_code "PROTO001" ds)

(* A master call whose constant address no slave decodes is PROTO001. *)
let test_unserved_address () =
  let p = fixture "lint_arbiter.sc" in
  let retarget = function
    | Call (f, Arg_expr _ :: rest) when String.equal f "MST_send_b1" ->
      Call (f, Arg_expr (Const (VInt 9)) :: rest)
    | s -> s
  in
  let top = Behavior.map_leaf_stmts (List.map retarget) p.p_top in
  let ds = Lint.Registry.run ~phase:Lint.Registry.Post { p with p_top = top } in
  let d1 = with_code "PROTO001" ds in
  Alcotest.(check bool) "unserved address flagged" true (d1 <> []);
  Alcotest.(check bool) "the stray address is named" true
    (List.exists (fun d -> contains d.Diagnostic.d_message "addresses 9") d1);
  Alcotest.(check bool) "PROTO001 is an error in any phase" true
    (List.for_all (fun d -> d.Diagnostic.d_severity = Diagnostic.Error) d1)

(* Masters that acquire a grant wire before the transaction are not
   contention: the arbiter rule must go quiet. *)
let test_grant_suppresses_contention () =
  let p = fixture "lint_arbiter.sc" in
  let acquire =
    [
      Signal_assign ("req", Const (VBool true));
      Wait_until (Binop (Eq, Ref "gnt", Const (VBool true)));
    ]
  in
  let top =
    Behavior.map_leaf_stmts
      (fun stmts ->
        let calls_bus =
          List.exists
            (function Call ("MST_send_b1", _) -> true | _ -> false)
            stmts
        in
        if calls_bus then acquire @ stmts else stmts)
      p.p_top
  in
  let sd name = { s_name = name; s_ty = TBool; s_init = Some (VBool false) } in
  let p' =
    { p with p_top = top; p_signals = p.p_signals @ [ sd "req"; sd "gnt" ] }
  in
  let ds = Lint.Registry.run ~phase:Lint.Registry.Post p' in
  Alcotest.(check bool) "grant holders are not flagged" false
    (has_code "CONT001" ds);
  (* Two contending regions: the single-master rule stays quiet too. *)
  Alcotest.(check bool) "contended grant is not overhead" false
    (has_code "CONT002" ds)

(* --- liveness and width passes over inline programs -------------------- *)

let live_src =
  "program live is\n\
  \  var dead : int<8> := 0;\n\
  \  var uninit : int<8>;\n\
  \  signal unused : bool := false;\n\
  \  behavior TOP : seq is\n\
  \  begin\n\
  \    behavior A : leaf is\n\
  \    begin\n\
  \      emit \"u\" uninit;\n\
  \    end behavior\n\
  \    -> complete;\n\
  \    behavior B : leaf is\n\
  \    begin\n\
  \      skip;\n\
  \    end behavior\n\
  \    ;\n\
  \  end behavior\n\
   end program"

let test_liveness_codes () =
  let ds = Lint.Registry.run ~phase:Lint.Registry.Pre (parse live_src) in
  let loc_of c =
    match with_code c ds with
    | [ d ] -> d.Diagnostic.d_loc
    | l -> Alcotest.failf "expected one %s, got %d" c (List.length l)
  in
  Alcotest.(check string) "LIVE001 on the untouched variable" "dead"
    (loc_of "LIVE001");
  Alcotest.(check string) "LIVE004 on the uninitialized read" "uninit"
    (loc_of "LIVE004");
  Alcotest.(check string) "LIVE002 on the unused signal" "unused"
    (loc_of "LIVE002");
  (match with_code "LIVE003" ds with
  | [ d ] ->
    Alcotest.(check string) "LIVE003 on the unreachable arm" "B"
      d.Diagnostic.d_loc;
    Alcotest.(check string) "inside its sequential parent" "TOP"
      (Diagnostic.path_string d)
  | l -> Alcotest.failf "expected one LIVE003, got %d" (List.length l));
  Alcotest.(check bool) "usage findings are warnings" false
    (Diagnostic.has_errors ds)

let width_src =
  "program widths is\n\
  \  var wide : int<16> := 0;\n\
  \  var narrow : int<8> := 0;\n\
  \  procedure take (a : in int<4>) is\n\
  \  begin\n\
  \    skip;\n\
  \  end procedure;\n\
  \  behavior MAIN : leaf is\n\
  \  begin\n\
  \    narrow := wide;\n\
  \    call take(wide);\n\
  \  end behavior\n\
   end program"

let test_width_codes () =
  let ds = Lint.Registry.run ~phase:Lint.Registry.Pre (parse width_src) in
  Alcotest.(check bool) "assignment narrowing flagged" true
    (List.exists
       (fun d -> contains d.Diagnostic.d_message "narrow")
       (with_code "WIDTH001" ds));
  Alcotest.(check bool) "call-transfer narrowing flagged" true
    (has_code "WIDTH002" ds);
  Alcotest.(check bool) "width findings are warnings in any phase" false
    (Diagnostic.has_errors (Lint.Registry.run ~phase:Lint.Registry.Post (parse width_src)))

(* Exact width findings under shadowing, structural and flow-sensitive:
   a behavior local beats a program variable, a parameter beats a
   global, a procedure local beats its parameter, and within one
   declaration list the first entry wins. *)
let width_shadow_src =
  "program wshadow is\n\
  \  var x : int<16> := 0;\n\
  \  var a : int<4> := 0;\n\
  \  var b : int<8> := 0;\n\
  \  procedure f (a : in int<16>; c : in int<8>) is\n\
  \    var c : int<2> := 0;\n\
  \  begin\n\
  \    b := a;\n\
  \    c := 7;\n\
  \  end procedure;\n\
  \  behavior TOP : seq is\n\
  \  begin\n\
  \    behavior LOCAL : leaf is\n\
  \      var x : int<4> := 0;\n\
  \      var y : int<4> := 0;\n\
  \      var y : int<16> := 0;\n\
  \    begin\n\
  \      x := 200;\n\
  \      y := 100;\n\
  \    end behavior\n\
  \    -> complete;\n\
  \    behavior GLOBAL : leaf is\n\
  \    begin\n\
  \      x := 200;\n\
  \      b := x;\n\
  \      call f(x, 1);\n\
  \    end behavior\n\
  \    -> complete;\n\
  \  end behavior\n\
   end program"

let test_width_shadowing () =
  let findings ~flow =
    Lint.Registry.run ~phase:Lint.Registry.Pre ~typecheck:false
      ~passes:[ Lint.Width.pass ] ~flow (parse width_shadow_src)
    |> List.map (fun d ->
           ( d.Diagnostic.d_code,
             Diagnostic.path_string d,
             d.Diagnostic.d_message ))
  in
  let t = Alcotest.(list (triple string string string)) in
  let in_proc =
    [
      ( "WIDTH001", "procedure f",
        "assignment to b narrows a 16-bit value to 8 bits" );
      ( "WIDTH001", "procedure f",
        "assignment to c narrows a 3-bit value to 2 bits" );
    ]
  in
  Alcotest.check t "structural"
    ([
       ( "WIDTH001", "TOP/GLOBAL",
         "assignment to b narrows a 16-bit value to 8 bits" );
       ( "WIDTH001", "TOP/LOCAL",
         "assignment to x narrows a 8-bit value to 4 bits" );
       ( "WIDTH001", "TOP/LOCAL",
         "assignment to y narrows a 7-bit value to 4 bits" );
     ]
    @ in_proc)
    (findings ~flow:false);
  (* With flow on, the interval analysis proves both [b] transfers fit
     ([x] is never written, so it stays 0).  A procedure local still
     shadows its parameter: [c] is the 2-bit local and [c := 7] does not
     fit. *)
  Alcotest.check t "flow"
    [
      ( "WIDTH001", "TOP/LOCAL",
        "assignment to x narrows a 8-bit value to 4 bits" );
      ( "WIDTH001", "TOP/LOCAL",
        "assignment to y narrows a 7-bit value to 4 bits" );
      ( "WIDTH001", "procedure f",
        "assignment to c narrows a 3-bit value to 2 bits" );
    ]
    (findings ~flow:true)

(* --- flow-sensitive mode ------------------------------------------------ *)

let pairs ds = List.map (fun d -> (d.Diagnostic.d_code, d.Diagnostic.d_loc)) ds

(* The exact diagnostic sets on the seeded fixture, flow off vs on: the
   flow-sensitive passes must drop the unreachable/guard-dominated
   LIVE004s and the interval-provable WIDTH001 and RACE001 while keeping
   every true positive, and add the dead-store/unread-write findings. *)
let test_flow_off_exact () =
  let p = fixture "lint_dataflow.sc" in
  Alcotest.(check (list (pair string string)))
    "flow-insensitive diagnostics"
    [
      ("LIVE004", "ghost");
      ("LIVE004", "phantom");
      ("LIVE004", "uninit");
      ("RACE001", "shared");
      ("WIDTH001", "clamped");
      ("WIDTH001", "narrow");
    ]
    (pairs (Lint.Registry.run p))

let test_flow_on_exact () =
  let p = fixture "lint_dataflow.sc" in
  Alcotest.(check (list (pair string string)))
    "flow-sensitive diagnostics"
    [
      ("LIVE001", "ghost");
      ("LIVE001", "phantom");
      ("LIVE003", "P2");
      ("LIVE004", "uninit");
      ("LIVE005", "tmp");
      ("LIVE006", "sink");
      ("WIDTH001", "narrow");
    ]
    (pairs (Lint.Registry.run ~flow:true p))

(* --- single-master arbiter rule (CONT002) ------------------------------- *)

let solo_master_src =
  "program solo is\n\
  \  signal b1_start : bool := false;\n\
  \  signal b1_done : bool := false;\n\
  \  signal b1_wr : bool := false;\n\
  \  signal b1_addr : int<4> := 0;\n\
  \  signal b1_data : int<8> := 0;\n\
  \  signal arb_req : bool := false;\n\
  \  signal arb_gnt : bool := false;\n\
  \  servers MEM, ARB;\n\
  \  procedure MST_send_b1 (a : in int<4>; d : in int<8>) is\n\
  \  begin\n\
  \    b1_addr <= a;\n\
  \    b1_data <= d;\n\
  \    b1_wr <= true;\n\
  \    b1_start <= true;\n\
  \    wait until b1_done = true;\n\
  \    b1_start <= false;\n\
  \    b1_wr <= false;\n\
  \    wait until b1_done = false;\n\
  \  end procedure;\n\
  \  behavior TOP : par is\n\
  \  begin\n\
  \    behavior M1 : leaf is\n\
  \    begin\n\
  \      arb_req <= true;\n\
  \      wait until arb_gnt = true;\n\
  \      call MST_send_b1(0, 5);\n\
  \      arb_req <= false;\n\
  \      wait until arb_gnt = false;\n\
  \    end behavior\n\
  \    ;\n\
  \    behavior ARB : leaf is\n\
  \    begin\n\
  \      while true do\n\
  \        wait until arb_req = true;\n\
  \        arb_gnt <= true;\n\
  \        wait until arb_req = false;\n\
  \        arb_gnt <= false;\n\
  \      end while;\n\
  \    end behavior\n\
  \    ;\n\
  \    behavior MEM : leaf is\n\
  \      var s0 : int<8> := 0;\n\
  \    begin\n\
  \      while true do\n\
  \        wait until b1_start = true;\n\
  \        if b1_wr = true and b1_addr = 0 then\n\
  \          s0 := b1_data;\n\
  \          emit \"s0\" s0;\n\
  \        end if;\n\
  \        b1_done <= true;\n\
  \        wait until b1_start = false;\n\
  \        b1_done <= false;\n\
  \      end while;\n\
  \    end behavior\n\
  \    ;\n\
  \  end behavior\n\
   end program"

(* A lone master wrapping its transactions in a grant nobody contends
   for is flagged CONT002; strip the wrapper and the pass goes quiet. *)
let test_cont002_single_master () =
  let p = parse solo_master_src in
  let ds = Lint.Registry.run ~phase:Lint.Registry.Post p in
  (match with_code "CONT002" ds with
  | [ d ] ->
    Alcotest.(check string) "on the bus address" "b1_addr"
      d.Diagnostic.d_loc;
    Alcotest.(check bool) "a warning, not an error" true
      (d.Diagnostic.d_severity = Diagnostic.Warning);
    Alcotest.(check bool) "names the wrapping master" true
      (contains d.Diagnostic.d_message "M1 wraps its calls")
  | l -> Alcotest.failf "expected one CONT002, got %d" (List.length l));
  Alcotest.(check bool) "no CONT001 on a single region" false
    (has_code "CONT001" ds);
  (* Without the grant wrapper there is no overhead to report. *)
  let strip =
    List.filter (function
      | Signal_assign ("arb_req", _) -> false
      | Wait_until (Binop (Eq, Ref "arb_gnt", _)) -> false
      | _ -> true)
  in
  let bare = { p with p_top = Behavior.map_leaf_stmts strip p.p_top } in
  let ds' = Lint.Registry.run ~phase:Lint.Registry.Post bare in
  Alcotest.(check bool) "bare single master is clean of CONT002" false
    (has_code "CONT002" ds');
  Alcotest.(check bool) "and of CONT001" false (has_code "CONT001" ds')

(* --- registry ---------------------------------------------------------- *)

let test_code_table () =
  let table = Lint.Registry.code_table in
  let cs = List.map fst table in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " documented") true (List.mem c cs))
    [
      "RACE001"; "RACE002"; "PROTO001"; "PROTO002"; "PROTO003"; "LIVE001";
      "LIVE002"; "LIVE003"; "LIVE004"; "LIVE005"; "LIVE006"; "CONT001";
      "CONT002"; "WIDTH001"; "WIDTH002"; "TYPE001"; "REF001"; "NAME001";
    ];
  Alcotest.(check (list string)) "table sorted and duplicate-free"
    (List.sort_uniq String.compare cs) cs

let test_run_sorted () =
  List.iter
    (fun name ->
      let ds = Lint.Registry.run ~phase:Lint.Registry.Post (fixture name) in
      let rec ordered = function
        | a :: (b :: _ as rest) ->
          Diagnostic.compare a b <= 0 && ordered rest
        | _ -> true
      in
      Alcotest.(check bool) (name ^ " output in stable order") true
        (ordered ds))
    [ "lint_race.sc"; "lint_handshake.sc"; "lint_arbiter.sc" ]

(* --- migrated checkers keep their shims -------------------------------- *)

let test_typecheck_shim () =
  let p =
    parse
      "program bad is\n\
      \  behavior M : leaf is\n\
      \  begin\n\
      \    y := 1;\n\
      \  end behavior\n\
       end program"
  in
  let ds = Typecheck.diagnostics p in
  Alcotest.(check bool) "unbound name is TYPE001" true (has_code "TYPE001" ds);
  List.iter
    (fun d ->
      Alcotest.(check string) "typecheck pass tag" "typecheck"
        d.Diagnostic.d_pass;
      Alcotest.(check bool) "type findings are errors" true
        (d.Diagnostic.d_severity = Diagnostic.Error))
    ds;
  match Typecheck.check p with
  | Ok () -> Alcotest.fail "expected a type error"
  | Error msgs ->
    Alcotest.(check (list string)) "string shim mirrors the diagnostics"
      (List.map (fun d -> d.Diagnostic.d_message) ds)
      msgs

let medical_refinement model =
  let d = List.hd Workloads.Designs.all in
  Core.Refiner.refine Workloads.Medical.spec Workloads.Medical.graph
    d.Workloads.Designs.d_partition model

let test_check_shim () =
  let r = medical_refinement Core.Model.Model2 in
  (match Core.Check.run ~original:Workloads.Medical.spec r with
  | Ok () -> ()
  | Error msgs ->
    Alcotest.failf "clean refinement rejected: %s" (String.concat "; " msgs));
  Alcotest.(check int) "no diagnostics on a clean refinement" 0
    (List.length (Core.Check.diagnostics ~original:Workloads.Medical.spec r));
  (* Re-introducing the original program variables must trip the
     leftover-state rule through both APIs, in stable order. *)
  let bad =
    {
      r with
      Core.Refiner.rf_program =
        {
          r.Core.Refiner.rf_program with
          p_vars = Workloads.Medical.spec.p_vars;
        };
    }
  in
  let ds = Core.Check.diagnostics ~original:Workloads.Medical.spec bad in
  Alcotest.(check bool) "REF001 raised" true (has_code "REF001" ds);
  Alcotest.(check (list string)) "diagnostics arrive sorted"
    (List.map Diagnostic.to_string (Diagnostic.sort ds))
    (List.map Diagnostic.to_string ds);
  match Core.Check.run ~original:Workloads.Medical.spec bad with
  | Ok () -> Alcotest.fail "leftover variables must fail the check"
  | Error msgs ->
    Alcotest.(check bool) "shim names the leftover state" true
      (List.exists (fun m -> contains m "variable") msgs)

(* --- one checked refinement: the carried verdict and its guard ---------- *)

let medical = Workloads.Medical.spec

let codes ds = List.map (fun d -> d.Diagnostic.d_code) ds

(* A program that still validates but no longer typechecks: its first
   signal becomes an array. *)
let ill_typed (p : Ast.program) =
  match p.p_signals with
  | s :: rest -> { p with p_signals = { s with s_ty = TArray (8, 2) } :: rest }
  | [] -> Alcotest.fail "refined program declares no signal"

let test_verdict_follows_program () =
  let r = medical_refinement Core.Model.Model2 in
  (match Core.Check.run ~original:medical r with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "clean refinement: %s" (String.concat "; " msgs));
  let p' = ill_typed r.Core.Refiner.rf_program in
  Alcotest.(check bool) "the replacement validates" true
    (Program.validate p' = Ok ());
  let broken = { r with Core.Refiner.rf_program = p' } in
  let ds = Core.Check.diagnostics ~original:medical broken in
  Alcotest.(check bool) "Check reports the replacement's TYPE003" true
    (has_code "TYPE003" ds);
  Alcotest.(check bool) "and only type errors" true
    (List.for_all (fun c -> String.starts_with ~prefix:"TYPE" c) (codes ds));
  (match Core.Check.run ~original:medical broken with
  | Ok () -> Alcotest.fail "an ill-typed program must fail the check"
  | Error msgs ->
    Alcotest.(check bool) "shim prefixes the type error" true
      (List.exists (fun m -> contains m "type error: ") msgs));
  Alcotest.(check bool) "lint reports it too" true
    (has_code "TYPE003" (Lint.Registry.run_refinement ~original:medical broken));
  Alcotest.(check (list string)) "the original record stays clean" []
    (codes (Core.Check.diagnostics ~original:medical r))

let test_verdict_keeps_structural_checks () =
  let r = medical_refinement Core.Model.Model1 in
  Alcotest.(check (list string)) "clean first" []
    (codes (Core.Check.diagnostics ~original:medical r));
  let stripped =
    {
      r with
      Core.Refiner.rf_buses =
        List.map
          (fun b -> { b with Core.Refiner.bi_arbiter = None })
          r.Core.Refiner.rf_buses;
    }
  in
  Alcotest.(check bool) "Check reports CONT001" true
    (has_code "CONT001" (Core.Check.diagnostics ~original:medical stripped));
  Alcotest.(check bool) "lint reports CONT001" true
    (has_code "CONT001"
       (Lint.Registry.run_refinement ~original:medical stripped))

(* The reference checks the refined program from scratch: the
   structural findings of a record whose program is a fresh copy, plus
   {!Program.validate} and {!Typecheck.diagnostics} called directly. *)
let fresh (r : Core.Refiner.t) =
  {
    r with
    Core.Refiner.rf_program =
      { r.Core.Refiner.rf_program with p_name = r.Core.Refiner.rf_program.p_name };
  }

let reference_check ~original (r : Core.Refiner.t) =
  let p = r.Core.Refiner.rf_program in
  let name_or_type (d : Diagnostic.t) =
    d.Diagnostic.d_code = "NAME001"
    || String.starts_with ~prefix:"TYPE" d.Diagnostic.d_code
  in
  let structural =
    List.filter
      (fun d -> not (name_or_type d))
      (Core.Check.diagnostics ~original (fresh r))
  in
  let names =
    match Program.validate p with
    | Ok () -> []
    | Error msgs ->
      List.map
        (fun m ->
          Diagnostic.make ~code:"NAME001" ~severity:Diagnostic.Error
            ~pass:"validate" m)
        msgs
  in
  Diagnostic.sort (structural @ names @ Typecheck.diagnostics p)

let check_once_targets () =
  let greedy p =
    Partitioning.Greedy.run (Agraph.Access_graph.of_program p) ~n_parts:2
  in
  let generated seed =
    Workloads.Generator.program
      {
        Workloads.Generator.default_config with
        Workloads.Generator.gen_seed = seed;
        gen_vars = 8;
        gen_leaves = 10;
        gen_par_branches = seed mod 3;
      }
  in
  [
    ("medical", medical,
      (List.hd Workloads.Designs.all).Workloads.Designs.d_partition);
    ("fig2", Workloads.Smallspecs.fig2, Workloads.Smallspecs.fig2_partition);
    ("elevator", Workloads.Elevator.spec, Workloads.Elevator.partition);
    ("fir", Workloads.Fir.spec, Workloads.Fir.partition);
  ]
  @ List.map
      (fun seed ->
        let p = generated seed in
        (Printf.sprintf "generated %d" seed, p, greedy p))
      [ 3; 17; 29 ]

let test_check_once_differential () =
  let show ds = List.map Diagnostic.to_string ds in
  List.iter
    (fun (name, p, part) ->
      let g = Agraph.Access_graph.of_program p in
      List.iter
        (fun model ->
          List.iter
            (fun (protocol, harden) ->
              let options =
                { Core.Refiner.default_options with protocol; harden }
              in
              let r = Core.Refiner.refine ~options p g part model in
              let what =
                Printf.sprintf "%s/%s/%s%s" name (Core.Model.name model)
                  (match protocol with
                  | Core.Protocol.Four_phase -> "4-phase"
                  | Core.Protocol.Two_phase -> "2-phase")
                  (if harden then "/harden" else "")
              in
              let expected = show (reference_check ~original:p r) in
              let lint_expected =
                show (Lint.Registry.run_refinement ~original:p (fresh r))
              in
              (* Lint first, then check, then both again: every order
                 and every repeat reads the same verdict. *)
              Alcotest.(check (list string)) (what ^ ": lint")
                lint_expected
                (show (Lint.Registry.run_refinement ~original:p r));
              Alcotest.(check (list string)) (what ^ ": check")
                expected
                (show (Core.Check.diagnostics ~original:p r));
              Alcotest.(check (list string)) (what ^ ": check again")
                expected
                (show (Core.Check.diagnostics ~original:p r));
              Alcotest.(check (list string)) (what ^ ": lint again")
                lint_expected
                (show (Lint.Registry.run_refinement ~original:p r)))
            [
              (Core.Protocol.Four_phase, false);
              (Core.Protocol.Four_phase, true);
              (Core.Protocol.Two_phase, false);
              (Core.Protocol.Two_phase, true);
            ])
        Core.Model.all)
    (check_once_targets ())

(* --- acceptance: refined medical outputs lint clean at severity=error -- *)

let test_refined_medical_error_clean () =
  List.iter
    (fun (d : Workloads.Designs.design) ->
      List.iter
        (fun m ->
          let r =
            Core.Refiner.refine Workloads.Medical.spec Workloads.Medical.graph
              d.Workloads.Designs.d_partition m
          in
          let ds =
            Lint.Registry.run_refinement ~original:Workloads.Medical.spec r
          in
          match Diagnostic.errors ds with
          | [] -> ()
          | errs ->
            Alcotest.failf "%s/%s: %s" d.Workloads.Designs.d_name
              (Core.Model.name m)
              (String.concat "; " (List.map Diagnostic.to_string errs)))
        Core.Model.all)
    Workloads.Designs.all

(* --- properties: the race detector on generated workloads -------------- *)

let gen_cfg seed =
  {
    Workloads.Generator.default_config with
    Workloads.Generator.gen_seed = seed;
    gen_vars = 6;
    gen_leaves = 6;
    gen_par_branches = 3;
  }

(* The generator gives each parallel branch a disjoint variable group,
   so its output must be race-free. *)
let prop_generated_par_race_free =
  QCheck.Test.make ~name:"generated par specs are race-free by construction"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = Workloads.Generator.program (gen_cfg seed) in
      let ds = Lint.Registry.run ~phase:Lint.Registry.Pre ~typecheck:false p in
      (not (has_code "RACE001" ds)) && not (has_code "RACE002" ds))

(* Seeding a write of one program variable into every leaf makes that
   variable cross parallel branches: RACE001 must fire on it. *)
let prop_injected_race_detected =
  QCheck.Test.make ~name:"a seeded cross-branch write raises RACE001"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = Workloads.Generator.program (gen_cfg seed) in
      let victim = (List.hd p.p_vars).v_name in
      let top =
        Behavior.map_leaf_stmts
          (fun stmts -> Assign (victim, Const (VInt 1)) :: stmts)
          p.p_top
      in
      let ds =
        Lint.Registry.run ~phase:Lint.Registry.Pre ~typecheck:false
          { p with p_top = top }
      in
      List.exists
        (fun d ->
          String.equal d.Diagnostic.d_code "RACE001"
          && String.equal d.Diagnostic.d_loc victim)
        ds)

(* --- report ------------------------------------------------------------- *)

let test_report_locate () =
  let src =
    "program locate_me is\n\
    \  var shared : int<8> := 0;\n\
    \  behavior TOP : par is\n\
    \  begin\n\
    \    behavior WRITER : leaf is\n\
    \    begin\n\
    \      shared := shared + 1;\n\
    \    end behavior\n\
    \    ;\n\
    \    behavior READER : leaf is\n\
    \    begin\n\
    \      emit \"seen\" shared;\n\
    \    end behavior\n\
    \    ;\n\
    \  end behavior\n\
    end program\n"
  in
  let _, locs =
    match Parser.program_of_string_located src with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  let d path loc =
    {
      Diagnostic.d_code = "RACE001";
      d_severity = Diagnostic.Warning;
      d_pass = "race";
      d_path = path;
      d_loc = loc;
      d_message = "msg";
    }
  in
  (match Lint.Report.locate ~file:"x.sc" locs [ d [ "TOP"; "WRITER" ] "shared" ] with
  | [ located ] ->
    Alcotest.(check string) "path resolves to behavior line" "x.sc:5: shared"
      located.Diagnostic.d_loc
  | _ -> Alcotest.fail "one diagnostic in, one out");
  (* Program-wide finding: falls back to the declaration table. *)
  (match Lint.Report.locate ~file:"x.sc" locs [ d [] "shared" ] with
  | [ located ] ->
    Alcotest.(check string) "decl fallback" "x.sc:2: shared"
      located.Diagnostic.d_loc
  | _ -> Alcotest.fail "one diagnostic in, one out");
  (* A finding on a path the source map cannot resolve (e.g. a node the
     fixer synthesized) degrades to file + behavior path, never line 0. *)
  (match Lint.Report.locate ~file:"x.sc" locs [ d [ "NOPE" ] "tmp_1" ] with
  | [ located ] ->
    Alcotest.(check string) "degrades to the behavior path"
      "x.sc: NOPE: tmp_1" located.Diagnostic.d_loc
  | _ -> Alcotest.fail "one diagnostic in, one out");
  (* Unresolvable findings pass through untouched. *)
  match Lint.Report.locate ~file:"x.sc" locs [ d [] "nowhere" ] with
  | [ located ] ->
    Alcotest.(check string) "untouched" "nowhere" located.Diagnostic.d_loc
  | _ -> Alcotest.fail "one diagnostic in, one out"

let test_report_rendering () =
  let p = parse "program p is behavior b : leaf is begin skip; end behavior end program" in
  let ds = Lint.Registry.run p in
  let targets =
    [ { Lint.Report.t_name = "p.sc"; t_phase = Lint.Registry.Pre; t_diags = ds } ]
  in
  let text = Lint.Report.to_text targets in
  Alcotest.(check bool) "has header" true (contains text "== p.sc:");
  Alcotest.(check bool) "has total" true (contains text "total:");
  let json = Lint.Report.to_json targets in
  Alcotest.(check bool) "json shape" true
    (contains json "{\"targets\":[{\"name\":\"p.sc\",\"phase\":\"pre\"");
  Alcotest.(check int) "errors agree" (Lint.Report.errors targets)
    (Diagnostic.count Diagnostic.Error ds)

let () =
  Alcotest.run "lint"
    [
      ( "diagnostic",
        [
          tc "sort order" test_diagnostic_order;
          tc "rendering" test_diagnostic_render;
        ] );
      ( "fixtures",
        [
          tc "seeded race" test_fixture_race;
          tc "unpaired handshake" test_fixture_handshake;
          tc "missing arbiter" test_fixture_arbiter;
          tc "unserved address" test_unserved_address;
          tc "grant suppresses contention" test_grant_suppresses_contention;
        ] );
      ( "passes",
        [
          tc "liveness codes" test_liveness_codes;
          tc "width codes" test_width_codes;
          tc "width shadowing" test_width_shadowing;
        ] );
      ( "flow",
        [
          tc "flow off: exact set" test_flow_off_exact;
          tc "flow on: exact set" test_flow_on_exact;
          tc "single-master arbiter" test_cont002_single_master;
        ] );
      ( "registry",
        [ tc "code table" test_code_table; tc "stable order" test_run_sorted ] );
      ( "report",
        [
          tc "locate file:line" test_report_locate;
          tc "text and json rendering" test_report_rendering;
        ] );
      ( "shims",
        [
          tc "typecheck" test_typecheck_shim;
          tc "refinement check" test_check_shim;
        ] );
      ( "check once",
        [
          tc "verdict follows the program" test_verdict_follows_program;
          tc "structural checks still run" test_verdict_keeps_structural_checks;
          tc "differential against a fresh check" test_check_once_differential;
        ] );
      ( "acceptance",
        [ tc "refined medical error-clean" test_refined_medical_error_clean ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generated_par_race_free; prop_injected_race_detected ] );
    ]
