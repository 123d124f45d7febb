(** Tests for the static typechecker, including the key invariant that
    every refined output is well typed. *)

open Spec
open Helpers

let ok p =
  match Typecheck.check p with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "expected well-typed: %s" (String.concat "; " errs)

let bad ?expect p =
  match Typecheck.check p with
  | Ok () -> Alcotest.fail "expected a type error"
  | Error errs ->
    begin match expect with
    | None -> ()
    | Some frag ->
      let contains s =
        let n = String.length frag and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = frag || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "mentions %S in %s" frag (String.concat "; " errs))
        true
        (List.exists contains errs)
    end

let leaf_prog ?vars ?signals ?procs stmts =
  Program.make ?vars ?signals ?procs "t"
    (Behavior.leaf "L" (Parser.stmts_of_string_exn stmts))

let iv name = Builder.int_var name
let bv name = Builder.bool_var name

let test_workloads_well_typed () =
  ok Workloads.Smallspecs.fig1;
  ok Workloads.Smallspecs.fig2;
  ok Workloads.Smallspecs.ping_pong;
  ok Workloads.Medical.spec

let test_refined_well_typed () =
  List.iter
    (fun (d : Workloads.Designs.design) ->
      List.iter
        (fun model ->
          let r =
            refine Workloads.Medical.spec d.Workloads.Designs.d_partition model
          in
          ok r.Core.Refiner.rf_program)
        Core.Model.all)
    Workloads.Designs.all

let test_arith_on_bool () =
  bad ~expect:"arithmetic operand"
    (leaf_prog ~vars:[ iv "x"; bv "b" ] "x := b + 1;")

let test_logic_on_int () =
  bad ~expect:"logical operand"
    (leaf_prog ~vars:[ iv "x"; bv "b" ] "b := b and x;")

let test_assign_mismatch () =
  bad ~expect:"assignment"
    (leaf_prog ~vars:[ iv "x" ] "x := true;");
  bad ~expect:"assignment"
    (leaf_prog ~vars:[ bv "b" ] "b := 1;")

let test_eq_mismatch () =
  bad ~expect:"equality"
    (leaf_prog ~vars:[ iv "x"; bv "b" ] "b := x = b;")

let test_condition_classes () =
  bad ~expect:"if condition" (leaf_prog ~vars:[ iv "x" ] "if x then skip; end if;");
  bad ~expect:"while condition"
    (leaf_prog ~vars:[ iv "x" ] "while x do skip; end while;");
  ok (leaf_prog ~vars:[ iv "x" ] "if x > 0 then skip; end if;")

let test_for_index () =
  bad ~expect:"for index"
    (leaf_prog ~vars:[ bv "b"; iv "x" ] "for b := 0 to 3 do x := 1; end for;")

let test_signal_assign_kinds () =
  bad ~expect:"use <="
    (leaf_prog ~signals:[ Builder.bool_signal "s" ] "s := true;");
  bad ~expect:"use :="
    (leaf_prog ~vars:[ bv "b" ] "b <= true;");
  ok (leaf_prog ~signals:[ Builder.bool_signal "s" ] "s <= true;")

let test_signal_value_mismatch () =
  bad ~expect:"signal assignment"
    (leaf_prog ~signals:[ Builder.bool_signal "s" ] "s <= 3;")

let test_call_typing () =
  let p =
    Builder.proc "f"
      ~params:
        [ Builder.param_in "a" Ast.TBool; Builder.param_out "r" (Ast.TInt 8) ]
      (Parser.stmts_of_string_exn "if a then r := 1; else r := 0; end if;")
  in
  ok (leaf_prog ~procs:[ p ] ~vars:[ iv "x" ] "call f(true, out x);");
  bad ~expect:"argument a"
    (leaf_prog ~procs:[ p ] ~vars:[ iv "x" ] "call f(1, out x);");
  bad ~expect:"expected bool"
    (leaf_prog ~procs:[ p ] ~vars:[ iv "x" ] "call f(1, out x);");
  bad ~expect:"argument r"
    (leaf_prog ~procs:[ p ] ~vars:[ iv "x"; bv "b" ] "call f(true, out b);")

let test_shadowing_changes_class () =
  (* A local boolean shadows a program integer of the same name. *)
  let prog =
    Program.make
      ~vars:[ iv "x" ]
      "t"
      (Behavior.leaf ~vars:[ bv "x" ] "L"
         (Parser.stmts_of_string_exn "x := true;"))
  in
  ok prog

(* Exact diagnostics of an ill-typed spec under shadowing: the innermost
   binding decides both the class and the kind of a name, a procedure
   local beats its parameter, a parameter beats a global, a program
   variable beats a signal of the same name, and within one declaration
   list the first entry wins. *)
let shadow_src =
  "program shadow is\n\
  \  var g : bool := false;\n\
  \  var both : int<8> := 0;\n\
  \  var twice : int<8> := 0;\n\
  \  var twice : bool := false;\n\
  \  signal s : bool := false;\n\
  \  signal both : bool := false;\n\
  \  procedure f (g : in int<8>; h : in int<8>) is\n\
  \    var h : bool;\n\
  \  begin\n\
  \    g := true;\n\
  \    h := 1;\n\
  \  end procedure;\n\
  \  behavior TOP : seq is\n\
  \  begin\n\
  \    behavior LOCAL : leaf is\n\
  \      var s : int<8> := 0;\n\
  \      var d : int<8> := 0;\n\
  \      var d : bool := false;\n\
  \    begin\n\
  \      s := 1;\n\
  \      s <= 2;\n\
  \      d := true;\n\
  \    end behavior\n\
  \    -> complete;\n\
  \    behavior GLOBAL : leaf is\n\
  \    begin\n\
  \      s := true;\n\
  \      both := 1;\n\
  \      twice := true;\n\
  \      call f(g, 1);\n\
  \    end behavior\n\
  \    -> complete;\n\
  \  end behavior\n\
   end program"

let test_shadowing_diagnostics () =
  let ds = Typecheck.diagnostics (Parser.program_of_string_exn shadow_src) in
  Alcotest.(check (list (triple string string string)))
    "diagnostics"
    [
      ( "TYPE002", "TOP/GLOBAL",
        "argument g of f g has type bool, expected int" );
      ( "TYPE002", "TOP/GLOBAL",
        "assignment: twice is int but the value is bool" );
      ("TYPE002", "TOP/LOCAL", "assignment: d is int but the value is bool");
      ( "TYPE002", "procedure f",
        "procedure f: assignment: g is int but the value is bool" );
      ( "TYPE002", "procedure f",
        "procedure f: assignment: h is bool but the value is int" );
      ( "TYPE004", "TOP/GLOBAL",
        "variable assignment to signal s (use <=)" );
      ( "TYPE004", "TOP/LOCAL",
        "signal assignment to variable s (use :=)" );
    ]
    (List.map
       (fun d ->
         ( d.Diagnostic.d_code,
           Diagnostic.path_string d,
           d.Diagnostic.d_message ))
       ds)

let test_transition_condition_class () =
  let prog =
    Program.make ~vars:[ iv "x" ] "t"
      (Behavior.seq "T"
         [
           Behavior.arm (Behavior.leaf "A" [])
             ~transitions:[ Builder.goto ~cond:(Expr.ref_ "x") "B" ];
           Behavior.arm (Behavior.leaf "B" []);
         ])
  in
  bad ~expect:"transition condition" prog

let test_proc_body_checked () =
  let p =
    Builder.proc "f"
      ~params:[ Builder.param_in "a" Ast.TBool ]
      (Parser.stmts_of_string_exn "a := a + 1;")
  in
  bad ~expect:"procedure f" (leaf_prog ~procs:[ p ] "skip;")

let test_array_rules () =
  let arr = Builder.var "a" (Ast.TArray (16, 4)) in
  ok
    (Program.make ~vars:[ arr ] "t"
       (Behavior.leaf "L" (Parser.stmts_of_string_exn "a[0] := a[1] + 2;")));
  bad ~expect:"without an index"
    (Program.make ~vars:[ arr; Builder.int_var "x" ] "t"
       (Behavior.leaf "L" (Parser.stmts_of_string_exn "x := a;")));
  bad ~expect:"without an index"
    (Program.make ~vars:[ arr ] "t"
       (Behavior.leaf "L" (Parser.stmts_of_string_exn "a := 3;")));
  bad ~expect:"indexed but has type"
    (Program.make ~vars:[ Builder.int_var "x"; Builder.int_var "y" ] "t"
       (Behavior.leaf "L" (Parser.stmts_of_string_exn "y := x[0];")));
  bad ~expect:"array index"
    (Program.make ~vars:[ arr; Builder.bool_var "b" ] "t"
       (Behavior.leaf "L" (Parser.stmts_of_string_exn "a[b] := 1;")));
  bad ~expect:"array type"
    (Program.make
       ~signals:[ Builder.signal "s" (Ast.TArray (8, 2)) ]
       "t" (Behavior.leaf "L" []))

let test_fir_well_typed () =
  ok Workloads.Fir.spec;
  List.iter
    (fun model ->
      let r = refine Workloads.Fir.spec Workloads.Fir.partition model in
      ok r.Core.Refiner.rf_program)
    Core.Model.all

let prop_generated_well_typed =
  QCheck.Test.make ~count:50 ~name:"generated programs are well typed"
    QCheck.(make Gen.(int_range 1 50_000))
    (fun seed ->
      Typecheck.check
        (Workloads.Generator.program
           { Workloads.Generator.default_config with gen_seed = seed })
      = Ok ())

let prop_refined_well_typed =
  QCheck.Test.make ~count:10 ~name:"refined generated programs are well typed"
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let p =
        Workloads.Generator.program
          { Workloads.Generator.default_config with gen_seed = seed }
      in
      let g = Agraph.Access_graph.of_program p in
      let part = Workloads.Generator.random_partition ~seed g ~n_parts:2 in
      List.for_all
        (fun model ->
          let r = Core.Refiner.refine p g part model in
          Typecheck.check r.Core.Refiner.rf_program = Ok ())
        Core.Model.all)

let () =
  Alcotest.run "typecheck"
    [
      ( "well typed",
        [
          tc "workloads" test_workloads_well_typed;
          tc "refined medical (all models)" test_refined_well_typed;
          tc "shadowing" test_shadowing_changes_class;
        ] );
      ( "violations",
        [
          tc "arith on bool" test_arith_on_bool;
          tc "logic on int" test_logic_on_int;
          tc "assign mismatch" test_assign_mismatch;
          tc "eq mismatch" test_eq_mismatch;
          tc "condition classes" test_condition_classes;
          tc "for index" test_for_index;
          tc "signal assign kinds" test_signal_assign_kinds;
          tc "signal value" test_signal_value_mismatch;
          tc "call typing" test_call_typing;
          tc "transition condition" test_transition_condition_class;
          tc "procedure body" test_proc_body_checked;
          tc "array rules" test_array_rules;
          tc "fir refined well typed" test_fir_well_typed;
          tc "shadowing diagnostics" test_shadowing_diagnostics;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_generated_well_typed;
          QCheck_alcotest.to_alcotest prop_refined_well_typed;
        ] );
    ]
