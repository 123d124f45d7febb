(** Integration tests driving the [mrefine] command-line binary end to
    end: every subcommand, on the shipped textual specifications. *)

open Helpers

let mrefine = "../bin/mrefine.exe"
let spec name = "../examples/specs/" ^ name

let run args =
  let cmd = Filename.quote_command mrefine args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 512 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> 255 in
  (code, Buffer.contents buf)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_ok args frags =
  let code, out = run args in
  if code <> 0 then Alcotest.failf "exit %d:\n%s" code out;
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "output mentions %S" frag)
        true (contains ~sub:frag out))
    frags

let expect_fail args frags =
  let code, out = run args in
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S" frag)
        true (contains ~sub:frag out))
    frags

let fig1_assign = "A=0,B=1,C=0,x=1"

let test_parse () =
  expect_ok [ "parse"; spec "medical.sc" ] [ "medical"; "lines" ];
  expect_ok [ "parse"; spec "fig1.sc" ] [ "fig1" ]

let test_graph () =
  expect_ok [ "graph"; spec "fig1.sc" ]
    [ "objects: A, B, C"; "variables: x"; "data channels: 5" ];
  expect_ok [ "graph"; spec "fig1.sc"; "--dot" ] [ "digraph"; "shape=box" ]

let test_partition_algos () =
  List.iter
    (fun algo ->
      expect_ok
        [ "partition"; spec "medical.sc"; "--algo"; algo ]
        [ "local variables:"; "global variables:"; "cross-partition" ])
    [ "greedy"; "kl"; "annealing"; "clustering" ]

let test_partition_manual () =
  expect_ok
    [ "partition"; spec "fig1.sc"; "--assign"; fig1_assign ]
    [ "P0: behaviors {A, C}"; "P1: behaviors {B}"; "global variables: x" ]

let test_refine () =
  expect_ok
    [ "refine"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "2" ]
    [ "program fig1_model2"; "B_NEW"; "MST_send"; "servers" ];
  expect_ok
    [ "refine"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "4"; "-q" ]
    [ "BIF_out" ]

let test_refine_roundtrips_through_cli () =
  (* The refined output is itself a valid input for the tool. *)
  let tmp = Filename.temp_file "coref_cli" ".sc" in
  expect_ok
    [ "refine"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "3";
      "-q"; "-o"; tmp ]
    [ "wrote" ];
  expect_ok [ "parse"; tmp ] [ "fig1_model3" ];
  expect_ok [ "typecheck"; tmp ] [ "well typed" ];
  expect_ok [ "simulate"; tmp ] [ "outcome: completed"; "emit B = 8" ];
  Sys.remove tmp

let test_simulate () =
  expect_ok
    [ "simulate"; spec "fig1.sc" ]
    [ "outcome: completed"; "emit A = 3"; "emit B = 8"; "final x = 8" ]

let test_cosim_all_models () =
  List.iter
    (fun model ->
      expect_ok
        [ "cosim"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; model ]
        [ "equivalent" ])
    [ "1"; "2"; "3"; "4" ]

let test_typecheck () =
  expect_ok [ "typecheck"; spec "medical.sc" ] [ "well typed" ]

let test_export_c () =
  expect_ok
    [ "export"; spec "pingpong.sc"; "-b"; "c" ]
    [ "#include <stdio.h>"; "int main(void)"; "coref_emit" ]

let test_export_vhdl () =
  expect_ok
    [ "export"; spec "medical.sc"; "-b"; "vhdl" ]
    [ "entity medical is"; "architecture behavioral" ];
  expect_ok
    [ "export"; spec "fig1.sc"; "-b"; "vhdl"; "--refine"; "--assign";
      fig1_assign; "--model"; "2" ]
    [ "signal bus_"; ": process" ]

let test_quality_real () =
  expect_ok
    [ "quality"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "2" ]
    [ "Intel8086"; "gates"; "pins"; "Gmem" ]

let test_fir_and_elevator_specs () =
  expect_ok [ "typecheck"; spec "fir.sc" ] [ "well typed" ];
  expect_ok [ "simulate"; spec "fir.sc" ] [ "outcome: completed"; "emit energy" ];
  expect_ok
    [ "cosim"; spec "fir.sc"; "--algo"; "kl"; "--model"; "3" ]
    [ "equivalent" ];
  expect_ok
    [ "cosim"; spec "elevator.sc"; "--algo"; "greedy"; "--model"; "2";
      "--protocol"; "two-phase" ]
    [ "equivalent" ];
  expect_ok [ "export"; spec "fir.sc"; "-b"; "c" ] [ "long long v_coeff[4]" ]

let test_explore () =
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--jobs"; "2" ]
    [ "design-space sweep: 12 candidates"; "Pareto frontier" ];
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--models"; "2,4"; "--biases"; "local"; "--json" ]
    [ "\"candidates\":2"; "\"pareto\":[{"; "\"model\":\"Model2\"" ];
  expect_fail
    [ "explore"; spec "fig2.sc"; "--models"; "9" ]
    [ "unknown model" ]

let fixture name = "fixtures/" ^ name

let test_lint () =
  (* Shipped specs are clean; the command exits 0. *)
  expect_ok [ "lint"; spec "medical.sc" ] [ "0 error(s)" ];
  (* A seeded race is a warning pre-refinement (exit 0) and an error
     with --phase post (exit 1). *)
  expect_ok
    [ "lint"; fixture "lint_race.sc" ]
    [ "warning[RACE001]"; "shared" ];
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post" ]
    [ "error[RACE001]" ];
  (* The other two seeded defects, each with its stable code. *)
  expect_fail
    [ "lint"; fixture "lint_handshake.sc" ]
    [ "error[PROTO002]"; "go_start"; "error[PROTO003]"; "go_done" ];
  expect_fail
    [ "lint"; fixture "lint_arbiter.sc"; "--phase"; "post" ]
    [ "error[CONT001]"; "b1_addr"; "arbitration" ]

let test_lint_filters_and_json () =
  (* Severity filtering: the pre-phase race warning disappears at
     --severity error, so the run is clean. *)
  expect_ok
    [ "lint"; fixture "lint_race.sc"; "--severity"; "error" ]
    [ "0 error(s)" ];
  (* Code filtering keeps only the requested diagnostics. *)
  let _, out =
    run [ "lint"; fixture "lint_handshake.sc"; "--code"; "PROTO003" ]
  in
  Alcotest.(check bool) "kept code present" true
    (contains ~sub:"PROTO003" out);
  Alcotest.(check bool) "other code filtered" false
    (contains ~sub:"PROTO002" out);
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post"; "--json" ]
    [ {|"code":"RACE001"|}; {|"severity":"error"|}; {|"errors":1|} ];
  expect_ok [ "lint"; "--list-codes" ]
    [ "RACE001"; "PROTO002"; "CONT001"; "WIDTH001"; "TYPE001" ]

let test_explore_resilience () =
  (* A nanosecond deadline times every candidate out; the sweep still
     completes and reports the degradation instead of hanging or
     aborting. *)
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--deadline"; "1e-9" ]
    [ "FAILED[timeout]"; "coverage 0.0%"; "failures: timeout=12" ]

let test_explore_resume () =
  let dir = Filename.temp_file "coref_cli_resume" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let journal = Filename.concat dir "sweep.journal" in
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--resume"; journal; "--json" ]
    [ "\"replayed\":0"; "\"coverage\":1.0000" ];
  (* Rerunning against the journal replays every candidate. *)
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--resume"; journal; "--json" ]
    [ "\"replayed\":12"; "\"coverage\":1.0000" ];
  (* A journal written under different search parameters must refuse. *)
  expect_fail
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "500";
      "--no-cache"; "--resume"; journal ]
    [ "different specification or configuration" ]

let test_lint_severity_overrides () =
  (* Silencing the seeded race makes even the post-phase run clean. *)
  expect_ok
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post";
      "--severity-override"; "RACE001=off" ]
    [ "0 error(s)" ];
  (* Demoting it keeps it visible but non-fatal. *)
  expect_ok
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post";
      "--severity-override"; "RACE001=warning" ]
    [ "warning[RACE001]" ];
  (* Promoting it turns the clean pre-phase run into a failure. *)
  expect_fail
    [ "lint"; fixture "lint_race.sc";
      "--severity-override"; "RACE001=error" ]
    [ "error[RACE001]" ];
  (* Malformed overrides are rejected up front. *)
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--severity-override"; "NOPE=off" ]
    [ "unknown diagnostic code" ];
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--severity-override"; "RACE001=loud" ]
    [ "level must be" ]

(* --- CLI and serve agree byte for byte ------------------------------- *)

(* The standard output of one [mrefine] run, whatever its exit status:
   lint and litmus exit non-zero on findings but still print a report. *)
let stdout_of args =
  let cmd = Filename.quote_command mrefine args ^ " 2>/dev/null" in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  out

module P = Serve.Protocol

let strs l = P.List (List.map (fun s -> P.String s) l)

(* A job of [kind] over the text of [path], on a fresh session so that
   cache-dependent reports (explore's hit counts) start cold like the
   CLI's [--no-cache]. *)
let served ?path kind fields =
  let spec =
    match path with
    | Some p ->
      [ ("spec", P.String (In_channel.with_open_bin p In_channel.input_all)) ]
    | None -> []
  in
  let job = P.Obj ((("kind", P.String kind) :: spec) @ fields) in
  match
    Serve.Jobs.run ~session:(Serve.Session.create ())
      ~poll:(fun () -> false) job
  with
  | Ok o -> o.Serve.Jobs.o_output
  | Error msg -> Alcotest.failf "served %s job failed: %s" kind msg

(* Each row: a name, the CLI arguments, and the served job that must
   print the same bytes. *)
let differential_cases =
  let fig1 = spec "fig1.sc" and fig2 = spec "fig2.sc" in
  let medical = spec "medical.sc" and handshake = fixture "lint_handshake.sc" in
  let lint_args =
    [ "--code"; "PROTO002,PROTO003"; "--phase"; "post";
      "--severity-override"; "PROTO002=warning"; "--flow" ]
  in
  let lint_fields =
    [ ("file", P.String handshake); ("codes", strs [ "PROTO002"; "PROTO003" ]);
      ("phase", P.String "post"); ("overrides", strs [ "PROTO002=warning" ]);
      ("flow", P.Bool true) ]
  in
  let explore_args =
    [ "explore"; fig2; "--models"; "2,4"; "--biases"; "local,global";
      "--seeds"; "1,2"; "--top"; "3"; "--steps"; "400"; "--no-cache" ]
  in
  let explore_fields =
    [ ("models", strs [ "2"; "4" ]); ("biases", strs [ "local"; "global" ]);
      ("seeds", P.List [ P.Int 1; P.Int 2 ]); ("top", P.Int 3);
      ("steps", P.Int 400) ]
  in
  let faults_args =
    [ "faults"; medical; "--faults"; "bit-flip,drop-handshake";
      "--ordering"; "relaxed:2"; "--base-seed"; "3"; "--seeds"; "2";
      "--harden"; "--model"; "4" ]
  in
  let faults_fields =
    [ ("classes", strs [ "bit-flip"; "drop-handshake" ]);
      ("ordering", P.String "relaxed:2"); ("base_seed", P.Int 3);
      ("seeds", P.Int 2); ("harden", P.Bool true); ("model", P.String "4") ]
  in
  let litmus_args =
    [ "litmus"; "--shape"; "sb,mp"; "--ordering"; "sc,relaxed"; "--seeds"; "2" ]
  in
  let litmus_fields =
    [ ("shapes", strs [ "sb"; "mp" ]); ("orderings", strs [ "sc"; "relaxed" ]);
      ("seeds", P.Int 2) ]
  in
  let json = ("json", P.Bool true) in
  [
    ( "refine assign two-phase harden",
      [ "refine"; "-q"; fig1; "--assign"; fig1_assign; "--protocol";
        "two-phase"; "--harden"; "--model"; "3" ],
      fun () ->
        served ~path:fig1 "refine"
          [ ("assign", P.String fig1_assign);
            ("protocol", P.String "two-phase"); ("harden", P.Bool true);
            ("model", P.String "3") ] );
    ( "refine annealing",
      [ "refine"; "-q"; medical; "--algo"; "annealing"; "--seed"; "7";
        "--parts"; "3"; "--model"; "4" ],
      fun () ->
        served ~path:medical "refine"
          [ ("algo", P.String "annealing"); ("seed", P.Int 7);
            ("parts", P.Int 3); ("model", P.String "4") ] );
    ( "lint text",
      ("lint" :: handshake :: lint_args),
      fun () -> served ~path:handshake "lint" lint_fields );
    ( "lint json",
      ("lint" :: handshake :: "--json" :: lint_args),
      fun () -> served ~path:handshake "lint" (json :: lint_fields) );
    ( "lint fix json",
      [ "lint"; "--fix"; "--json"; fixture "lint_fixable.sc" ],
      fun () ->
        served ~path:(fixture "lint_fixable.sc") "lint"
          [ ("fix", P.Bool true) ] );
    ( "explore text",
      explore_args,
      fun () -> served ~path:fig2 "explore" explore_fields );
    ( "explore json",
      explore_args @ [ "--json" ],
      fun () -> served ~path:fig2 "explore" (json :: explore_fields) );
    ( "faults text",
      faults_args,
      fun () -> served ~path:medical "faults" faults_fields );
    ( "faults json",
      faults_args @ [ "--json" ],
      fun () -> served ~path:medical "faults" (json :: faults_fields) );
    ("litmus text", litmus_args, fun () -> served "litmus" litmus_fields);
    ( "litmus json",
      litmus_args @ [ "--json" ],
      fun () -> served "litmus" (json :: litmus_fields) );
  ]

let differential_tests =
  List.map
    (fun (name, args, job) ->
      tc name (fun () ->
          let cli = stdout_of args in
          Alcotest.(check bool) (name ^ ": CLI printed a report") true
            (cli <> "");
          Alcotest.(check string) name cli (job ())))
    differential_cases

(* An input error exits 1 with an [mrefine:] message naming it. *)
let expect_input_error args frag =
  let code, out = run args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": exit") 1 code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: says %S" what frag)
    true
    (contains ~sub:("mrefine: " ^ frag) out)

let test_bad_partition_args () =
  List.iter
    (fun cmd ->
      expect_input_error [ cmd; spec "fig1.sc"; "--parts"; "0" ]
        "parts must be >= 1";
      expect_input_error [ cmd; spec "fig1.sc"; "--parts=-1" ]
        "parts must be >= 1")
    [ "refine"; "faults"; "partition" ];
  expect_input_error
    [ "refine"; spec "medical.sc"; "--assign"; "INIT=7" ]
    "INIT assigned to partition 7";
  expect_input_error
    [ "faults"; spec "medical.sc"; "--assign"; "INIT=-1" ]
    "INIT assigned to partition -1";
  expect_input_error
    [ "partition"; spec "fig1.sc"; "--assign"; "A=x" ]
    "bad partition index \"x\" for A";
  (* Explore rejects the partition count before sweeping, instead of
     quarantining every candidate as crashed. *)
  expect_input_error
    [ "explore"; spec "fig2.sc"; "--parts"; "0"; "--no-cache" ]
    "parts must be >= 1"

(* Under --fix every --code must be fixable and the report-only options
   are refused, as for a served fix job. *)
let test_lint_fix_rules () =
  let fixable = fixture "lint_fixable.sc" in
  expect_input_error
    [ "lint"; "--fix"; fixable; "--code"; "PROTO003,LIVE004" ]
    "code(s) LIVE004 are not fixable";
  List.iter
    (fun flag ->
      expect_input_error
        ([ "lint"; "--fix"; fixable ] @ flag)
        ("fix takes no " ^ List.hd flag))
    [ [ "--severity"; "info" ]; [ "--phase"; "post" ];
      [ "--severity-override"; "RACE001=off" ]; [ "--flow" ] ];
  (* A fixable --code restricts the rewrites; --json stays the output
     format. *)
  let out =
    stdout_of [ "lint"; "--fix"; "--json"; fixable; "--code"; "WIDTH001" ]
  in
  Alcotest.(check bool) "WIDTH001 applied" true
    (contains ~sub:{|{"code":"WIDTH001"|} out);
  Alcotest.(check bool) "PROTO003 left alone" false
    (contains ~sub:{|{"code":"PROTO003"|} out)

(* The daemon's two ends share one token resolution: an unreadable
   --token-file is an input error, not an uncaught exception.  A socket
   that cannot be bound is one too. *)
let test_daemon_input_errors () =
  let missing_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "mrefine-no-such-dir"
  in
  let missing = Filename.concat missing_dir "token" in
  let socket = Filename.concat missing_dir "serve.sock" in
  expect_input_error
    [ "client"; "--token-file"; missing; "--ping" ]
    "cannot read --token-file";
  expect_input_error
    [ "serve"; "--socket"; socket; "--token-file"; missing ]
    "cannot read --token-file";
  expect_input_error
    [ "client"; "--token"; "t"; "--token-file"; missing; "--ping" ]
    "give only one of --token and --token-file";
  expect_input_error [ "serve"; "--socket"; socket ]
    ("cannot listen on " ^ socket)

let test_errors () =
  expect_fail [ "parse"; "/nonexistent.sc" ] [];
  expect_fail
    [ "refine"; spec "fig1.sc"; "--assign"; "A=0" ]
    [ "unassigned" ];
  expect_fail
    [ "refine"; spec "fig1.sc"; "--assign"; "A=0,B=9,C=0,x=1" ]
    [];
  expect_fail
    [ "cosim"; spec "fig1.sc"; "--assign"; "nope=1" ]
    [ "unknown object" ]

(* One exit-status rule: a flag cmdliner cannot convert, an unknown flag
   and a semantic input error all exit 1, with the message on stderr. *)
let test_exit_status () =
  List.iter
    (fun (args, frag) ->
      let code, out = run args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": exit") 1 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: says %S" what frag)
        true (contains ~sub:frag out))
    [
      ([ "explore"; spec "fig2.sc"; "--models"; "9" ], "unknown model");
      ([ "litmus"; "--shape"; "nope" ], "nope");
      ([ "parse"; spec "fig1.sc"; "--no-such-flag" ], "unknown option");
      ([ "no-such-command" ], "unknown command");
      ([ "refine"; spec "fig1.sc"; "--assign"; "A=0" ], "unassigned");
    ]

(* The numeric knobs the CLI shares with serve are checked in the command
   layer: a deadline is a finite number of seconds above zero (a
   negative one used to cancel every run, nan to mean no deadline), and
   explore's step budget and row count are not negative. *)
let test_numeric_fields () =
  let deadline = "deadline must be finite and > 0" in
  List.iter
    (fun (args, frag) -> expect_input_error args frag)
    [
      ([ "faults"; spec "fig2.sc"; "--deadline=-1" ], deadline);
      ([ "faults"; spec "fig2.sc"; "--deadline=nan" ], deadline);
      ([ "faults"; spec "fig2.sc"; "--deadline=0" ], deadline);
      ([ "explore"; spec "fig2.sc"; "--no-cache"; "--deadline=-1" ], deadline);
      ([ "explore"; spec "fig2.sc"; "--no-cache"; "--deadline=nan" ], deadline);
      ([ "explore"; spec "fig2.sc"; "--no-cache"; "--deadline=inf" ], deadline);
      ([ "explore"; spec "fig2.sc"; "--no-cache"; "--steps=-5" ],
        "steps must be >= 0");
      ([ "explore"; spec "fig2.sc"; "--no-cache"; "--top=-1" ],
        "top must be >= 0");
    ]

(* Start-up does no work before [main]: no built-in workload is built
   and no collection runs.  [v=0x400] makes the runtime print its GC
   counters at exit.  Building the workloads at start-up allocated about
   88k words and ran 3 minor and 2 major collections; a clean start-up
   allocates about 23k. *)
let test_startup_is_cheap () =
  let cmd =
    "OCAMLRUNPARAM=v=0x400 " ^ Filename.quote_command mrefine [ "--version" ]
    ^ " 2>&1"
  in
  let ic = Unix.open_process_in cmd in
  let lines = In_channel.input_lines ic in
  ignore (Unix.close_process_in ic);
  let counters =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "%s@: %d" (fun k v -> (k, v)))
      lines
  in
  let counter name =
    match List.assoc_opt name counters with
    | Some v -> v
    | None -> Alcotest.failf "no %s in:\n%s" name (String.concat "\n" lines)
  in
  Alcotest.(check int) "minor collections" 0 (counter "minor_collections");
  Alcotest.(check int) "major collections" 0 (counter "major_collections");
  let words = counter "allocated_words" in
  if words > 40_000 then
    Alcotest.failf "start-up allocated %d words (bound 40000)" words

(* --help=plain of the root and of every subcommand it lists exits 0
   and prints nothing on stderr (a doc string cmdliner cannot read is
   reported there). *)
let test_help_plain () =
  let err = Filename.temp_file "help" ".err" in
  let help args =
    let out = Filename.temp_file "help" ".out" in
    let code =
      Sys.command
        (Filename.quote_command mrefine ~stdout:out ~stderr:err
           (args @ [ "--help=plain" ]))
    in
    let text = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    let what = String.concat " " ("mrefine" :: args) in
    Alcotest.(check int) (what ^ " --help=plain: exit") 0 code;
    Alcotest.(check string) (what ^ " --help=plain: stderr") ""
      (In_channel.with_open_bin err In_channel.input_all);
    text
  in
  (* Command names sit at seven spaces' indent in the COMMANDS section. *)
  let rec commands in_section = function
    | [] -> []
    | l :: rest when String.length l > 0 && l.[0] <> ' ' ->
      commands (String.equal l "COMMANDS") rest
    | l :: rest when in_section && String.length l > 7
                     && String.sub l 0 7 = "       " && l.[7] <> ' ' ->
      List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7)))
      :: commands in_section rest
    | _ :: rest -> commands in_section rest
  in
  let subs = commands false (String.split_on_char '\n' (help [])) in
  Alcotest.(check bool) "found the subcommands" true (List.length subs >= 15);
  List.iter (fun sub -> ignore (help [ sub ])) subs;
  Sys.remove err

(* --- JSON: every --json report parses with the one codec ------------------ *)

module Json = Spec.Json

(* The reports pinned in cli_golden.expected; the compact ones print on
   one line, so re-printing what was parsed gives back the same bytes. *)
let json_reports =
  [
    (true, [ "lint"; "--json"; spec "medical.sc" ]);
    (true, [ "lint"; "--json"; fixture "lint_race.sc" ]);
    (true, [ "lint"; "--fix"; "--json"; fixture "lint_fixable.sc" ]);
    (true, [ "litmus"; "--shape"; "sb"; "--seeds"; "1"; "--json" ]);
    (false, [ "faults"; spec "medical.sc"; "--json"; "--seeds"; "1" ]);
    (* fixed decimals ("coverage":1.0000) re-print shorter *)
    (false, [ "explore"; spec "fig2.sc"; "--json"; "--seeds"; "1"; "--steps";
              "10"; "--no-cache" ]);
  ]

let report_texts =
  lazy (List.map (fun (_, args) -> stdout_of args) json_reports)

let test_reports_parse () =
  List.iter2
    (fun (compact, args) text ->
      let what = String.concat " " args in
      match Json.parse text with
      | Error msg -> Alcotest.failf "%s: %s" what msg
      | Ok j ->
        if compact then
          Alcotest.(check string) (what ^ ": re-printed") (String.trim text)
            (Json.to_string j))
    json_reports (Lazy.force report_texts)

let request_frames =
  List.map
    (fun r -> Json.to_string (Serve.Protocol.request_to_json r))
    Serve.Protocol.
      [
        Auth "s3cret\"\n";
        Submit
          {
            sb_id = Some "job-1";
            sb_job =
              Obj
                [ ("kind", String "explore"); ("seeds", List [ Int 1; Int 2 ]);
                  ("deadline", Float 0.25); ("json", Bool true);
                  ("spec", String "program p is\n\tbehavior \"x\"");
                  ("retries", Null) ];
          };
        Status "job-1";
        Result { rs_id = "job-1"; rs_wait = true };
        Cancel "job-1";
        Stats;
        Ping;
        Shutdown;
      ]

(* One frame of '[' as large as the daemon's default --max-frame-bytes:
   refused at the depth bound, before work or memory proportional to
   its length. *)
let test_deep_nesting () =
  let frame = String.make (4 lsl 20) '[' in
  (match
     check_allocation ~label:"4 MiB of '['" ~size:Json.max_depth (fun () ->
         Json.parse frame)
   with
  | Ok _ -> Alcotest.fail "unterminated nesting accepted"
  | Error msg ->
    Alcotest.(check bool) ("names the bound: " ^ msg) true
      (contains ~sub:"nesting deeper than" msg));
  let nest n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "max_depth levels parse" true
    (Result.is_ok (Json.parse (nest Json.max_depth)));
  Alcotest.(check bool) "one more is refused" true
    (Result.is_error (Json.parse (nest (Json.max_depth + 1))))

let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 12) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let scalar =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int; map (fun f -> Json.Float f) finite;
        map (fun s -> Json.String s) str ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [ (2, scalar);
               ( 1,
                 map (fun xs -> Json.List xs)
                   (list_size (0 -- 4) (self (n - 1))) );
               ( 1,
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (0 -- 4) (pair str (self (n - 1)))) ) ])

let prop_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"parse (to_string j) = Ok j"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j -> Json.parse (Json.to_string j) = Ok j)

(* Damaged documents: a byte flipped, a truncation, or the head of one
   document spliced onto the tail of another.  Each gives Ok or Error —
   never an exception — at bounded allocation. *)
let prop_damaged_documents =
  let docs = lazy (Array.of_list (Lazy.force report_texts @ request_frames)) in
  let gen =
    let open QCheck.Gen in
    let* docs = return (Lazy.force docs) in
    let* a = oneofa docs in
    let* b = oneofa docs in
    let* i = 0 -- String.length a in
    let* j = 0 -- String.length b in
    let* byte = char in
    oneofl
      [ (if i < String.length a then
           String.mapi (fun k c -> if k = i then byte else c) a
         else a);
        String.sub a 0 i;
        String.sub a 0 i ^ String.sub b j (String.length b - j) ]
  in
  QCheck.Test.make ~count:2000 ~name:"damaged documents never raise"
    (QCheck.make ~print:(fun s -> String.escaped s) gen)
    (fun s ->
      match
        check_allocation ~label:"damaged document" ~size:(String.length s)
          (fun () -> Json.parse s)
      with
      | Ok _ | Error _ -> true)

let json_tests =
  [
    tc "pinned reports parse" test_reports_parse;
    tc "deep nesting fails fast" test_deep_nesting;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_damaged_documents;
  ]

let () =
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          tc "parse" test_parse;
          tc "graph" test_graph;
          tc "partition algos" test_partition_algos;
          tc "partition manual" test_partition_manual;
          tc "refine" test_refine;
          tc "refined output round-trips" test_refine_roundtrips_through_cli;
          tc "simulate" test_simulate;
          tc "cosim all models" test_cosim_all_models;
          tc "typecheck" test_typecheck;
          tc "export c" test_export_c;
          tc "export vhdl" test_export_vhdl;
          tc "quality" test_quality_real;
          tc "fir/elevator specs" test_fir_and_elevator_specs;
          tc "explore" test_explore;
          tc "explore resilience" test_explore_resilience;
          tc "explore resume" test_explore_resume;
          tc "lint" test_lint;
          tc "lint filters and json" test_lint_filters_and_json;
          tc "lint severity overrides" test_lint_severity_overrides;
          tc "errors" test_errors;
          tc "numeric fields" test_numeric_fields;
          tc "exit status" test_exit_status;
          tc "bad partition arguments" test_bad_partition_args;
          tc "lint fix rules" test_lint_fix_rules;
          tc "daemon input errors" test_daemon_input_errors;
          tc "help of every subcommand" test_help_plain;
          tc "start-up is cheap" test_startup_is_cheap;
        ] );
      ("cli = serve", differential_tests);
      ("json", json_tests);
    ]
