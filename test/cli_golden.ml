(** CLI output golden: runs [mrefine] over a fixed list of invocations
    and prints, for each, its command line, standard output, standard
    error and exit status.  [dune runtest] diffs the result against
    cli_golden.expected, so any change in what a subcommand prints or
    how it exits shows there. *)

let mrefine = "../bin/mrefine.exe"
let spec name = "../examples/specs/" ^ name
let fig1 = spec "fig1.sc"
let fig1_assign = [ "--assign"; "A=0,B=1,C=0,x=1" ]

(* Every machine-readable report, pinned byte for byte: these are the
   outputs other tools read. *)
let json_invocations =
  [
    [ "lint"; "--json"; spec "medical.sc" ];
    [ "lint"; "--json"; "fixtures/lint_race.sc" ];
    [ "lint"; "--fix"; "--json"; "fixtures/lint_fixable.sc" ];
    [ "litmus"; "--shape"; "sb"; "--seeds"; "1"; "--json" ];
    [ "faults"; spec "medical.sc"; "--json"; "--seeds"; "1" ];
    [ "explore"; spec "fig2.sc"; "--json"; "--seeds"; "1"; "--steps"; "10";
      "--no-cache" ];
    (* a full default sweep: 36 partition searches of 4000 steps each *)
    [ "explore"; spec "medical.sc"; "--json"; "--no-cache" ];
  ]

let invocations =
  [
    [ "parse"; fig1 ];
    [ "parse"; spec "medical.sc" ];
    [ "graph"; fig1 ];
    [ "graph"; fig1; "--dot" ];
  ]
  @ List.map
      (fun algo -> [ "partition"; spec "medical.sc"; "--algo"; algo ])
      [ "greedy"; "kl"; "annealing"; "clustering" ]
  @ List.concat_map
      (fun sc ->
        List.map
          (fun algo ->
            [ "partition"; spec sc; "--algo"; algo; "--parts"; "3" ])
          [ "annealing"; "kl" ])
      [ "fig2.sc"; "elevator.sc"; "fir.sc" ]
  @ [
      [ "partition"; fig1 ] @ fig1_assign;
      [ "refine"; fig1; "--model"; "2" ] @ fig1_assign;
      [ "refine"; spec "medical.sc"; "--parts"; "3"; "--model"; "3" ];
      [ "simulate"; fig1 ];
    ]
  @ List.map
      (fun m -> [ "cosim"; fig1; "--model"; m ] @ fig1_assign)
      [ "1"; "2"; "3"; "4" ]
  @ [
      [ "typecheck"; spec "medical.sc" ];
      [ "export"; spec "pingpong.sc"; "-b"; "c" ];
      [ "export"; fig1; "-b"; "vhdl" ];
      [ "export"; fig1; "-b"; "vhdl"; "--refine"; "--model"; "2" ]
      @ fig1_assign;
      [ "quality"; fig1; "--model"; "2" ] @ fig1_assign;
      [ "quality"; spec "medical.sc"; "--parts"; "3" ];
      (* the built-in workloads and their refined medical designs *)
      [ "lint"; "--workloads" ];
    ]
  @ json_invocations
  @ [
      (* input errors: a missing file, an incomplete partition, a bad
         flag value, journals that cannot be opened *)
      [ "parse"; "nonexistent.sc" ];
      [ "refine"; fig1; "--assign"; "A=0" ];
      (* every other manual-partition error *)
      [ "refine"; fig1; "--assign"; "Z=0" ];
      [ "refine"; fig1; "--assign"; "A=x" ];
      [ "refine"; fig1; "--assign"; "A=5" ];
      [ "refine"; fig1; "--assign"; "A=0,A=1,B=1,C=0,x=1" ];
      [ "refine"; fig1; "--assign"; "A" ];
      [ "cosim"; fig1; "--model"; "9" ];
      (* an integer literal past max_int; a fault-free run that divides
         by zero *)
      [ "parse"; "fixtures/big_literal.sc" ];
      [ "parse"; "fixtures/big_array.sc" ];
      [ "simulate"; "fixtures/big_array.sc" ];
      [ "simulate"; "fixtures/div_zero.sc" ];
      [ "cosim"; "fixtures/div_zero.sc"; "-p"; "2" ];
      [ "faults"; "fixtures/div_zero.sc"; "--seeds"; "1"; "-p"; "2" ];
      [ "faults"; spec "medical.sc"; "--seeds"; "1"; "--resume";
        "/dev/null/sub/j.journal" ];
      [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "10";
        "--no-cache"; "--resume"; "/dev/null/j.journal" ];
      [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "10";
        "--no-cache"; "--resume"; "../examples/specs" ];
      (* daemon flag errors, all caught before any socket is touched *)
      [ "serve"; "--socket"; "golden.sock"; "--jobs"; "0" ];
      [ "serve"; "--socket"; "golden.sock"; "--max-frame-bytes"; "100" ];
      [ "serve"; "--socket"; "golden.sock"; "--listen"; "/tmp/x.sock" ];
      [ "serve"; "--socket"; "golden.sock"; "--journal"; "/dev/null/x.journal" ];
      [ "client"; "--connect"; "/tmp/x.sock"; "--ping" ];
      [ "client"; "--retries=-1"; "--ping" ];
      [ "client"; "--submit"; "refine" ];
      [ "client"; "--ping"; "--stats" ];
      [ "client"; "--socket"; "no-such-daemon.sock"; "--retries"; "0";
        "--ping" ];
      [ "chaos"; "--listen"; "127.0.0.1:0" ];
    ]

let read path = In_channel.with_open_bin path In_channel.input_all

let () =
  let out = Filename.temp_file "cli_golden" ".out" in
  let err = Filename.temp_file "cli_golden" ".err" in
  List.iter
    (fun args ->
      let cmd = Filename.quote_command mrefine ~stdout:out ~stderr:err args in
      let code = Sys.command cmd in
      Printf.printf "$ mrefine %s\n--- stdout\n%s--- stderr\n%s--- exit %d\n\n"
        (String.concat " " args) (read out) (read err) code)
    invocations;
  Sys.remove out;
  Sys.remove err
