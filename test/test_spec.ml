(** Unit and property tests for the [spec] library: expressions,
    statements, behaviors, programs, lexer, parser and printer. *)

open Spec
open Spec.Ast
open Helpers

(* --- expressions -------------------------------------------------------- *)

let test_eval_arith () =
  check_value "add" (vint 7) (eval_with [] Expr.(int 3 + int 4));
  check_value "sub" (vint (-1)) (eval_with [] Expr.(int 3 - int 4));
  check_value "mul" (vint 12) (eval_with [] Expr.(int 3 * int 4));
  check_value "div" (vint 2) (eval_with [] Expr.(int 9 / int 4));
  check_value "mod" (vint 1) (eval_with [] Expr.(int 9 mod int 4));
  check_value "neg" (vint (-5)) (eval_with [] (Expr.neg (Expr.int 5)))

let test_eval_compare () =
  check_value "lt" (vbool true) (eval_with [] Expr.(int 1 < int 2));
  check_value "le" (vbool true) (eval_with [] Expr.(int 2 <= int 2));
  check_value "gt" (vbool false) (eval_with [] Expr.(int 1 > int 2));
  check_value "ge" (vbool false) (eval_with [] Expr.(int 1 >= int 2));
  check_value "eq" (vbool true) (eval_with [] Expr.(int 3 = int 3));
  check_value "neq" (vbool true) (eval_with [] Expr.(int 3 <> int 4));
  check_value "eq-bool" (vbool true) (eval_with [] Expr.(tru = tru))

let test_eval_bool () =
  check_value "and" (vbool false) (eval_with [] Expr.(tru && fls));
  check_value "or" (vbool true) (eval_with [] Expr.(fls || tru));
  check_value "not" (vbool false) (eval_with [] (Expr.not_ Expr.tru))

let test_eval_refs () =
  let env = [ ("x", vint 5); ("b", vbool true) ] in
  check_value "ref" (vint 5) (eval_with env (Expr.ref_ "x"));
  check_value "mix" (vint 11) (eval_with env Expr.(ref_ "x" * int 2 + int 1));
  Alcotest.check_raises "unbound" (Expr.Eval_error "unbound reference y")
    (fun () -> ignore (eval_with env (Expr.ref_ "y")))

let test_eval_shortcircuit () =
  (* The right operand must not be evaluated when the left decides. *)
  let env = [ ("x", vint 0) ] in
  check_value "and-short" (vbool false)
    (eval_with env Expr.(fls && (ref_ "missing" = int 1)));
  check_value "or-short" (vbool true)
    (eval_with env Expr.(tru || (ref_ "missing" = int 1)))

let test_eval_div_zero () =
  Alcotest.check_raises "div0" (Expr.Eval_error "division by zero") (fun () ->
      ignore (eval_with [] Expr.(int 1 / int 0)));
  Alcotest.check_raises "mod0" (Expr.Eval_error "modulo by zero") (fun () ->
      ignore (eval_with [] Expr.(int 1 mod int 0)))

let test_eval_type_errors () =
  Alcotest.check_raises "bool+int" (Expr.Eval_error "expected an integer value")
    (fun () -> ignore (eval_with [] Expr.(tru + int 1)));
  Alcotest.check_raises "int-and" (Expr.Eval_error "expected a boolean value")
    (fun () -> ignore (eval_with [] Expr.(int 1 && tru)))

let test_eval_const () =
  Alcotest.(check (option value_testable))
    "const" (Some (vint 5))
    (Expr.eval_const Expr.(int 2 + int 3));
  Alcotest.(check (option value_testable))
    "non-const" None
    (Expr.eval_const Expr.(ref_ "x" + int 3))

let test_refs_order () =
  Alcotest.(check (list string))
    "order, dedup" [ "a"; "b"; "c" ]
    (Expr.refs Expr.(ref_ "a" + ref_ "b" + ref_ "a" * ref_ "c"))

let test_rename_subst () =
  let e = Expr.(ref_ "x" + ref_ "y") in
  check_expr "rename"
    Expr.(ref_ "x1" + ref_ "y1")
    (Expr.rename (fun s -> s ^ "1") e);
  check_expr "subst" Expr.(int 9 + ref_ "y") (Expr.subst "x" (Expr.int 9) e)

let test_expr_size () =
  Alcotest.(check int) "size" 5 (Expr.size Expr.(ref_ "x" + int 1 * int 2))

(* Printing with minimal parentheses must re-parse to the same tree. *)
let test_pp_parse_units () =
  let cases =
    [
      Expr.(int 1 + int 2 * int 3);
      Expr.((int 1 + int 2) * int 3);
      Expr.(int 1 - (int 2 - int 3));
      Expr.(int 1 - int 2 - int 3);
      Expr.(neg (ref_ "x") + int 1);
      Expr.(not_ (ref_ "b" && ref_ "c"));
      Expr.(not_ (ref_ "b") && ref_ "c");
      Expr.((ref_ "x" < int 3) || (ref_ "y" >= int 4 && ref_ "b"));
      Expr.(ref_ "x" mod int 7 = int 0);
      Expr.(neg (neg (int 3)));
    ]
  in
  List.iter
    (fun e ->
      let text = Expr.to_string e in
      check_expr text e (Parser.expr_of_string_exn text))
    cases

(* qcheck: random expressions round-trip through print + parse. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Expr.int (int_range 0 100);
        map Expr.ref_ (oneofl [ "x"; "y"; "zz" ]);
        return Expr.tru;
        return Expr.fls;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           oneof
             [
               leaf;
               map2
                 (fun a b -> Expr.(a + b))
                 (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Expr.(a - b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Expr.(a * b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Expr.(a < b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Expr.(a = b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Expr.(a && b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Expr.(a || b)) (self (n / 2)) (self (n / 2));
               map Expr.neg (self (n - 1));
               map Expr.not_ (self (n - 1));
             ])

let prop_expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"expr print/parse roundtrip"
    (QCheck.make gen_expr ~print:Expr.to_string)
    (fun e -> Ast.equal_expr e (Parser.expr_of_string_exn (Expr.to_string e)))

(* qcheck: the buffer printer matches the [Format] printer it replaced,
   kept here verbatim as the reference. *)
let format_to_string e =
  let open Format in
  let pp_value ppf = function
    | Ast.VBool true -> pp_print_string ppf "true"
    | Ast.VBool false -> pp_print_string ppf "false"
    | Ast.VInt n -> pp_print_int ppf n
  in
  let prec = function
    | Ast.Or -> 1
    | And -> 2
    | Eq | Neq | Lt | Le | Gt | Ge -> 3
    | Add | Sub -> 4
    | Mul | Div | Mod -> 5
  in
  let rec go ctx ppf e =
    match e with
    | Ast.Const v -> pp_value ppf v
    | Ref x -> pp_print_string ppf x
    | Index (x, i) -> fprintf ppf "%s[%a]" x (go 0) i
    | Unop (op, a) ->
      let s = match op with Ast.Neg -> "-" | Not -> "not " in
      if ctx > 6 then fprintf ppf "(%s%a)" s (go 7) a
      else fprintf ppf "%s%a" s (go 7) a
    | Binop (op, a, b) ->
      let p = prec op in
      let lctx =
        match op with
        | Eq | Neq | Lt | Le | Gt | Ge -> p + 1
        | Add | Sub | Mul | Div | Mod | And | Or -> p
      in
      let body ppf () =
        fprintf ppf "%a %s %a" (go lctx) a (Expr.binop_symbol op)
          (go (p + 1)) b
      in
      if ctx > p then fprintf ppf "(%a)" body () else body ppf ()
  in
  asprintf "%a" (go 0) e

(* Every operator, indexing, negative constants, and the shapes the
   precedence rules care about: nested unary minus and chained
   comparisons. *)
let gen_printer_expr =
  let open QCheck.Gen in
  let binops =
    Ast.[ Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Le; Gt; Ge; And; Or ]
  in
  let leaf =
    oneof
      [
        map Expr.int (int_range (-1000) 1000);
        map Expr.int (oneofl [ min_int; max_int; -1; 0 ]);
        map Expr.ref_ (oneofl [ "x"; "y"; "long_signal_name_0" ]);
        map Expr.bool bool;
      ]
  in
  sized_size (int_range 0 40)
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 6,
                 map3
                   (fun op a b -> Ast.Binop (op, a, b))
                   (oneofl binops) (self (n / 2)) (self (n / 2))
               );
               (2, map Expr.neg (self (n - 1)));
               (1, map Expr.not_ (self (n - 1)));
               (1, map (fun e -> Expr.neg (Expr.neg e)) (self (n - 1)));
               ( 1,
                 map3
                   (fun a b c -> Expr.(a < b = c))
                   (self (n / 3)) (self (n / 3)) (self (n / 3)) );
               ( 1,
                 map2 (fun x i -> Ast.Index (x, i)) (oneofl [ "m"; "mem" ])
                   (self (n - 1)) );
             ])

let prop_printer_matches_format =
  QCheck.Test.make ~count:1000 ~name:"to_string matches the Format printer"
    (QCheck.make gen_printer_expr ~print:format_to_string)
    (fun e -> String.equal (Expr.to_string e) (format_to_string e))

(* --- statements --------------------------------------------------------- *)

let sample_stmts =
  Parser.stmts_of_string_exn
    "x := y + 1; s <= x; if x > 0 then z := 1; elsif x < 0 then z := 2; else \
     z := 3; end if; while z < 9 do z := z + w; end while; for i := 0 to 3 \
     do acc := acc + i; end for; wait until s = true; call p(x, out r); emit \
     \"t\" z; skip;"

let test_stmt_reads () =
  Alcotest.(check (list string))
    "reads" [ "y"; "x"; "z"; "w"; "acc"; "i"; "s" ]
    (Stmt.reads sample_stmts)

let test_stmt_writes () =
  Alcotest.(check (list string))
    "writes" [ "x"; "z"; "i"; "acc"; "r" ]
    (Stmt.writes sample_stmts)

let test_stmt_signal_writes () =
  Alcotest.(check (list string)) "sig writes" [ "s" ] (Stmt.signal_writes sample_stmts)

let test_stmt_calls () =
  Alcotest.(check (list string)) "calls" [ "p" ] (Stmt.calls sample_stmts)

let test_stmt_count () =
  (* assign + sassign + if + 3 branch assigns + while + 1 + for + 1 + wait
     + call + emit + skip = 14 *)
  Alcotest.(check int) "count" 14 (Stmt.count sample_stmts)

let test_stmt_rename () =
  let renamed = Stmt.rename_refs (fun s -> s ^ "_r") sample_stmts in
  Alcotest.(check (list string))
    "renamed writes" [ "x_r"; "z_r"; "i_r"; "acc_r"; "r_r" ]
    (Stmt.writes renamed);
  Alcotest.(check bool) "old gone" false (Stmt.uses_name "x" renamed)

let test_stmt_map_stmts () =
  (* Replace every skip with two skips, bottom-up. *)
  let stmts = [ Skip; While (Expr.tru, [ Skip ]) ] in
  let doubled =
    Stmt.map_stmts (function Skip -> [ Skip; Skip ] | s -> [ s ]) stmts
  in
  Alcotest.(check int) "spliced" 5 (Stmt.count doubled)

let test_stmt_map_exprs () =
  let stmts = Parser.stmts_of_string_exn "x := y; z := y + y;" in
  let swapped = Stmt.map_exprs (Expr.subst "y" (Expr.int 0)) stmts in
  Alcotest.(check (list string)) "no more y" [] (Stmt.reads swapped)

let test_fold_exprs_order () =
  let stmts = Parser.stmts_of_string_exn "a := 1; b := 2; c := 3;" in
  let consts =
    Stmt.fold_exprs
      (fun acc e -> match Expr.eval_const e with Some (VInt n) -> n :: acc | _ -> acc)
      [] stmts
  in
  Alcotest.(check (list int)) "source order" [ 3; 2; 1 ] consts

(* --- behaviors ---------------------------------------------------------- *)

let tree =
  Behavior.seq "root"
    [
      Behavior.arm (Behavior.leaf "a" [ Skip ]);
      Behavior.arm
        (Behavior.par "p"
           [ Behavior.leaf "b" [ Skip ]; Behavior.leaf ~vars:[ Builder.int_var "v" ] "c" [] ]);
    ]

let test_behavior_names () =
  Alcotest.(check (list string))
    "preorder" [ "root"; "a"; "p"; "b"; "c" ] (Behavior.names tree)

let test_behavior_find () =
  Alcotest.(check bool) "found" true (Behavior.find "c" tree <> None);
  Alcotest.(check bool) "missing" true (Behavior.find "zz" tree = None)

let test_behavior_parent () =
  (match Behavior.parent_of "b" tree with
  | Some p -> Alcotest.(check string) "parent" "p" p.b_name
  | None -> Alcotest.fail "no parent");
  Alcotest.(check bool) "root has none" true (Behavior.parent_of "root" tree = None)

let test_behavior_counts () =
  Alcotest.(check int) "behaviors" 5 (Behavior.behavior_count tree);
  Alcotest.(check int) "stmts" 2 (Behavior.stmt_count tree);
  Alcotest.(check int) "depth" 3 (Behavior.depth tree)

let test_behavior_replace () =
  let replaced = Behavior.replace "b" (Behavior.leaf "b2" [ Skip; Skip ]) tree in
  Alcotest.(check (list string))
    "renamed" [ "root"; "a"; "p"; "b2"; "c" ] (Behavior.names replaced);
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Behavior.replace "zz" tree tree))

let test_behavior_all_var_decls () =
  Alcotest.(check (list (pair string string)))
    "decls" [ ("c", "v") ]
    (List.map (fun (b, v) -> (b, v.v_name)) (Behavior.all_var_decls tree))

let test_transition_conds () =
  let b =
    Behavior.seq "s"
      [
        Behavior.arm (Behavior.leaf "x" [])
          ~transitions:[ Builder.goto ~cond:Expr.(ref_ "v" > int 1) "y" ];
        Behavior.arm (Behavior.leaf "y" []);
      ]
  in
  Alcotest.(check int) "one cond" 1 (List.length (Behavior.transition_conds b))

(* --- programs ----------------------------------------------------------- *)

let test_validate_ok () =
  ignore (Program.validate_exn Workloads.Smallspecs.fig1);
  ignore (Program.validate_exn Workloads.Smallspecs.fig2);
  ignore (Program.validate_exn Workloads.Medical.spec)

let expect_invalid name p =
  match Program.validate p with
  | Ok () -> Alcotest.failf "%s: expected validation failure" name
  | Error msgs -> Alcotest.(check bool) name true (msgs <> [])

let test_validate_unbound_ref () =
  expect_invalid "unbound"
    (Program.make "p" (Behavior.leaf "l" [ Assign ("x", Expr.int 1) ]))

let test_validate_dup_behavior () =
  expect_invalid "dup"
    (Program.make "p"
       (Behavior.seq "t"
          [
            Behavior.arm (Behavior.leaf "a" []);
            Behavior.arm (Behavior.leaf "a" []);
          ]))

let test_validate_bad_transition () =
  expect_invalid "bad goto"
    (Program.make "p"
       (Behavior.seq "t"
          [
            Behavior.arm (Behavior.leaf "a" [])
              ~transitions:[ Builder.goto "nowhere" ];
          ]))

let test_validate_bad_call () =
  let proc = Builder.proc "f" ~params:[ Builder.param_in "a" (TInt 8) ] [] in
  expect_invalid "arity"
    (Program.make ~procs:[ proc ] "p"
       (Behavior.leaf "l" [ Call ("f", []) ]));
  expect_invalid "unknown proc"
    (Program.make "p" (Behavior.leaf "l" [ Call ("g", []) ]));
  let proc_out = Builder.proc "h" ~params:[ Builder.param_out "o" (TInt 8) ] [] in
  expect_invalid "expr to out"
    (Program.make ~procs:[ proc_out ] "p"
       (Behavior.leaf "l" [ Call ("h", [ Arg_expr (Expr.int 1) ]) ]))

let test_validate_scoping () =
  (* A local declaration makes the name visible in the subtree only. *)
  let p =
    Program.make "p"
      (Behavior.seq "t"
         [
           Behavior.arm
             (Behavior.leaf ~vars:[ Builder.int_var "loc" ] "a"
                [ Assign ("loc", Expr.int 1) ]);
           Behavior.arm (Behavior.leaf "b" [ Assign ("loc", Expr.int 2) ]);
         ])
  in
  expect_invalid "sibling cannot see local" p

let test_validate_server_exists () =
  expect_invalid "ghost server"
    (Program.make ~servers:[ "ghost" ] "p" (Behavior.leaf "l" []))

let test_lookup () =
  let p = Workloads.Smallspecs.fig1 in
  Alcotest.(check bool) "var x" true (Program.lookup_var p "x" <> None);
  Alcotest.(check bool) "no var y" true (Program.lookup_var p "y" = None);
  Alcotest.(check bool) "behavior B" true (Program.lookup_behavior p "B" <> None)

(* --- lexer -------------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "x := 12 + y; -- comment\nwhile" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  Alcotest.(check int) "count" 8 (List.length kinds);
  Alcotest.(check bool) "assign" true (List.mem Lexer.ASSIGN kinds);
  Alcotest.(check bool) "kw while" true (List.mem (Lexer.KW "while") kinds);
  Alcotest.(check bool) "eof" true (List.mem Lexer.EOF kinds)

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "a\nb\nc" in
  let lines =
    List.filter_map
      (fun t -> match t.Lexer.tok with Lexer.IDENT _ -> Some t.Lexer.lnum | _ -> None)
      toks
  in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3 ] lines

let test_lexer_string () =
  let toks = Lexer.tokenize "\"he\\\"llo\"" in
  match (List.hd toks).Lexer.tok with
  | Lexer.STRING s -> Alcotest.(check string) "escaped" "he\"llo" s
  | _ -> Alcotest.fail "expected string token"

let test_lexer_errors () =
  Alcotest.check_raises "illegal char" (Lexer.Lex_error ("illegal character '@'", 1))
    (fun () -> ignore (Lexer.tokenize "@"));
  Alcotest.check_raises "unterminated" (Lexer.Lex_error ("unterminated string", 1))
    (fun () -> ignore (Lexer.tokenize "\"abc"));
  Alcotest.check_raises "literal past max_int"
    (Lexer.Lex_error ("integer literal out of range 100000000000000000000", 2))
    (fun () -> ignore (Lexer.tokenize "x\n[100000000000000000000]"));
  Alcotest.(check (result reject string))
    "parse reports it"
    (Error
       "lex error at line 1: integer literal out of range \
        100000000000000000000")
    (Parser.program_of_string
       "program p is var a : int<8>[100000000000000000000]; end program")

(* A newline inside a string literal, raw or escaped, still counts as a
   line: the [@] below sits on line 7. *)
let test_lexer_multiline_string_lines () =
  List.iter
    (fun newline ->
      let src =
        "program ml is\n  var x : int<8> := 0;\n  behavior TOP : leaf is\n\
        \  begin\n    emit \"a" ^ newline ^ "b\" x;\n    @\n  end behavior\n\
         end program\n"
      in
      Alcotest.(check (result reject string))
        (String.escaped newline)
        (Error "lex error at line 7: illegal character '@'")
        (Parser.program_of_string src))
    [ "\n"; "\\\n" ]

let test_lexer_two_char_ops () =
  let kinds src = List.map (fun t -> t.Lexer.tok) (Lexer.tokenize src) in
  Alcotest.(check bool) "le" true (List.mem Lexer.LE (kinds "a <= b"));
  Alcotest.(check bool) "ge" true (List.mem Lexer.GE (kinds "a >= b"));
  Alcotest.(check bool) "neq" true (List.mem Lexer.NEQ (kinds "a /= b"));
  Alcotest.(check bool) "arrow" true (List.mem Lexer.ARROW (kinds "a -> b"))

(* A one-character operator that ends the input has no second character
   to pair with. *)
let test_lexer_op_at_end () =
  List.iter
    (fun (src, tok) ->
      Alcotest.(check bool) src true
        (List.map (fun t -> t.Lexer.tok) (Lexer.tokenize src)
        = [ Lexer.IDENT "a"; tok; Lexer.EOF ]))
    [ ("a :", Lexer.COLON); ("a -", Lexer.MINUS); ("a <", Lexer.LT);
      ("a >", Lexer.GT); ("a /", Lexer.SLASH) ]

(* Every reserved word lexes as a keyword; words that contain, extend or
   re-case one are identifiers. *)
let test_lexer_keywords () =
  let tok src =
    match Lexer.tokenize src with
    | [ t; { Lexer.tok = Lexer.EOF; _ } ] -> t.Lexer.tok
    | _ -> Alcotest.failf "%S: not one token" src
  in
  List.iter
    (fun k -> Alcotest.(check bool) k true (tok k = Lexer.KW k))
    Lexer.keywords;
  List.iter
    (fun w -> Alcotest.(check bool) w true (tok w = Lexer.IDENT w))
    [ "ends"; "endx"; "_if"; "IF"; "integer"; "In"; "nots"; "o" ]

(* --- parser + printer ---------------------------------------------------- *)

let test_program_roundtrip () =
  List.iter
    (fun p ->
      let text = Printer.program_to_string p in
      let p' = Parser.program_of_string_exn text in
      Alcotest.check program_testable p.p_name p p')
    [
      Workloads.Smallspecs.fig1; Workloads.Smallspecs.fig2;
      Workloads.Smallspecs.ping_pong; Workloads.Medical.spec;
    ]

let test_refined_roundtrip () =
  (* The refined output (signals, procedures, servers, par, protocol
     calls) must also round-trip. *)
  let r =
    refine Workloads.Smallspecs.fig2 Workloads.Smallspecs.fig2_partition
      Core.Model.Model4
  in
  let p = r.Core.Refiner.rf_program in
  let p' = Parser.program_of_string_exn (Printer.program_to_string p) in
  Alcotest.check program_testable "roundtrip" p p'

(* Emit tags are printed with OCaml's [%S] escapes ([\r], [\b],
   [\DDD], ...); the lexer must decode every one of them. *)
let test_emit_tag_bytes_roundtrip () =
  let tag_program tag =
    Program.make "tags" (Behavior.leaf "TOP" [ Builder.emit tag (Expr.int 1) ])
  in
  let check tag =
    let p = tag_program tag in
    let p' = Parser.program_of_string_exn (Printer.program_to_string p) in
    Alcotest.check program_testable (String.escaped tag) p p'
  in
  for b = 0 to 255 do
    check (Printf.sprintf "a%cb" (Char.chr b))
  done;
  check (String.init 256 Char.chr)

let test_refined_emit_tag_simulates () =
  let src =
    "program cafe is\n  behavior TOP : leaf is\n  begin\n\
    \    emit \"caf\195\169\r\" 1;\n  end behavior\nend program\n"
  in
  let p = Parser.program_of_string_exn src in
  let g = Agraph.Access_graph.of_program p in
  let r = refine p (Partitioning.Greedy.run g ~n_parts:1) Core.Model.Model2 in
  let printed = Printer.program_to_string r.Core.Refiner.rf_program in
  let tags q =
    List.map
      (fun e -> e.Sim.Trace.ev_tag)
      (Sim.Engine.run (Parser.program_of_string_exn q)).Sim.Engine.r_trace
  in
  Alcotest.(check (list string)) "emits" [ "caf\195\169\r" ] (tags printed);
  Alcotest.(check (list string)) "as the source" (tags src) (tags printed)

let prop_generated_roundtrip =
  QCheck.Test.make ~count:50 ~name:"generated program roundtrip"
    QCheck.(make Gen.(map (fun seed ->
        { Workloads.Generator.default_config with gen_seed = seed })
        (int_range 1 10_000)))
    (fun cfg ->
      let p = Workloads.Generator.program cfg in
      let p' = Parser.program_of_string_exn (Printer.program_to_string p) in
      Ast.equal_program p p')

let test_parse_errors () =
  let bad src =
    match Parser.program_of_string src with
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
    | Error msg -> Alcotest.(check bool) "mentions line" true
        (String.length msg > 0)
  in
  bad "program p is end";
  bad "program p is behavior b : leaf is begin x = 1; end behavior end program";
  bad "program p is behavior b : oops is begin end behavior end program";
  bad "";
  bad "program p is behavior b : leaf is begin skip; end behavior end program trailing"

(* A program's arrays together hold at most 2^20 elements; the
   declaration that passes the bound is reported with its line. *)
let test_array_element_bound () =
  let spec n =
    Printf.sprintf
      "program p is\n\
      \  var a : int<8>[524288];\n\
      \  behavior T : leaf is\n\
      \    var b : int<8>[%d];\n\
      \  begin skip; end behavior\n\
       end program\n"
      n
  in
  Alcotest.(check bool) "2^20 in total parse" true
    (Result.is_ok (Parser.program_of_string (spec 524288)));
  Alcotest.(check (result reject string)) "one more is refused"
    (Error
       "parse error at line 4: array b: 524289 elements take the program's \
        arrays past 1048576 elements")
    (Parser.program_of_string (spec 524289))

let test_located_parse () =
  let src =
    "program locs is\n\
    \  var g : int<8> := 0;\n\
    \  signal s : bool := false;\n\
    \  procedure helper (a : in int<8>) is\n\
    \  begin\n\
    \    g := a;\n\
    \  end procedure;\n\
    \  behavior TOP : seq is\n\
    \    var local : int<8>;\n\
    \  begin\n\
    \    behavior INNER : leaf is\n\
    \    begin\n\
    \      local := 1;\n\
    \    end behavior\n\
    \    -> complete;\n\
    \  end behavior\n\
    end program\n"
  in
  match Parser.program_of_string_located src with
  | Error msg -> Alcotest.fail msg
  | Ok (p, locs) ->
    (* The located parse must agree with the plain one. *)
    (match Parser.program_of_string src with
    | Ok p' -> Alcotest.(check bool) "same program" true (Ast.equal_program p p')
    | Error msg -> Alcotest.fail msg);
    let line table name =
      List.assoc_opt name table
    in
    Alcotest.(check (option int)) "program var" (Some 2)
      (line locs.Parser.loc_decls "g");
    Alcotest.(check (option int)) "signal" (Some 3)
      (line locs.Parser.loc_decls "s");
    Alcotest.(check (option int)) "procedure" (Some 4)
      (line locs.Parser.loc_procedures "helper");
    Alcotest.(check (option int)) "top behavior" (Some 8)
      (line locs.Parser.loc_behaviors "TOP");
    Alcotest.(check (option int)) "behavior var" (Some 9)
      (line locs.Parser.loc_decls "local");
    Alcotest.(check (option int)) "nested behavior" (Some 11)
      (line locs.Parser.loc_behaviors "INNER");
    (* Path resolution: the deepest resolvable element wins. *)
    Alcotest.(check (option int)) "path deepest" (Some 11)
      (Parser.line_of_path locs [ "TOP"; "INNER" ]);
    Alcotest.(check (option int)) "procedure marker" (Some 4)
      (Parser.line_of_path locs [ "TOP"; "procedure helper" ]);
    Alcotest.(check (option int)) "unknown tail falls back" (Some 8)
      (Parser.line_of_path locs [ "TOP"; "NOWHERE" ]);
    Alcotest.(check (option int)) "nothing resolvable" None
      (Parser.line_of_path locs [ "NOWHERE" ])

let test_line_count () =
  let p = Workloads.Smallspecs.fig1 in
  let lines =
    String.split_on_char '\n' (Printer.program_to_string p)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "count matches" (List.length lines) (Printer.line_count p)

let test_string_of_ty () =
  Alcotest.(check string) "bool" "bool" (Printer.string_of_ty TBool);
  Alcotest.(check string) "int" "int<12>" (Printer.string_of_ty (TInt 12));
  Alcotest.(check string) "array" "int<8>[16]"
    (Printer.string_of_ty (TArray (8, 16)))

let test_array_syntax_roundtrip () =
  let cases =
    [ "x[0] := y[i + 1] + 2;"; "emit \"t\" a[b[0]];";
      "if a[3] > 0 then a[3] := a[3] - 1; end if;" ]
  in
  List.iter
    (fun src ->
      let stmts = Parser.stmts_of_string_exn src in
      let printed = Printer.stmts_to_string stmts in
      Alcotest.(check bool) src true
        (stmts = Parser.stmts_of_string_exn printed))
    cases;
  (* whole program with an array declaration *)
  let prog =
    Program.make
      ~vars:[ Builder.var "a" (TArray (16, 4)) ~init:(VInt 1) ]
      "arr"
      (Behavior.leaf ~vars:[ Builder.int_var "i" ] "L"
         (Parser.stmts_of_string_exn
            "for i := 0 to 3 do a[i] := i * 2; end for; emit \"last\" a[3];"))
  in
  let prog = Program.validate_exn prog in
  let p' = Parser.program_of_string_exn (Printer.program_to_string prog) in
  Alcotest.check program_testable "program roundtrip" prog p'

let test_array_fir_roundtrip () =
  let p = Workloads.Fir.spec in
  let p' = Parser.program_of_string_exn (Printer.program_to_string p) in
  Alcotest.check program_testable "fir" p p'

(* --- analysis ------------------------------------------------------------ *)

let test_analysis_accesses () =
  let p = Workloads.Smallspecs.fig1 in
  let accs = Analysis.accesses_of p "B" in
  (* B: x := x + 5 and emit; read + write of x. *)
  Alcotest.(check int) "two kinds" 2 (List.length accs);
  List.iter
    (fun a -> Alcotest.(check string) "var" "x" a.Analysis.ac_var)
    accs

let test_analysis_toc_attribution () =
  (* Transition conditions of arm A are charged to A (Figure 6). *)
  let p = Workloads.Smallspecs.fig1 in
  let a_reads =
    List.filter
      (fun a -> a.Analysis.ac_kind = Analysis.Read)
      (Analysis.accesses_of p "A")
  in
  Alcotest.(check bool) "A reads x (via conds and emit)" true
    (List.exists (fun a -> a.Analysis.ac_var = "x") a_reads)

let test_analysis_loop_weighting () =
  let p =
    Program.make
      ~vars:[ Builder.int_var "v" ]
      "p"
      (Behavior.leaf "l"
         (Parser.stmts_of_string_exn
            "for q := 0 to 3 do v := v + 1; end for;"
          |> fun stmts ->
          stmts))
  in
  (* The for body executes 4 times: v read and written 4 times each.
     [q] is undeclared at program level, so only v is counted. *)
  let p =
    { p with
      p_top =
        { p.p_top with
          b_vars = [ Builder.int_var "q" ] } }
  in
  let accs = Analysis.accesses_of p "l" in
  List.iter
    (fun a -> Alcotest.(check int) "4x" 4 a.Analysis.ac_count)
    accs;
  Alcotest.(check int) "two entries" 2 (List.length accs)

let test_analysis_while_weighting () =
  let p =
    Program.make
      ~vars:[ Builder.int_var "v" ]
      "p"
      (Behavior.leaf "l"
         [ While (Expr.(ref_ "v" < int 10), [ Assign ("v", Expr.(ref_ "v" + int 1)) ]) ])
  in
  let accs = Analysis.behavior_accesses ~while_iterations:5 p in
  let l_accs = List.assoc "l" accs in
  let writes = List.find (fun a -> a.Analysis.ac_kind = Analysis.Write) l_accs in
  Alcotest.(check int) "5 writes" 5 writes.Analysis.ac_count

let test_analysis_shadowing () =
  let p =
    Program.make
      ~vars:[ Builder.int_var "v" ]
      "p"
      (Behavior.leaf ~vars:[ Builder.int_var "v" ] "l"
         [ Assign ("v", Expr.int 1) ])
  in
  Alcotest.(check int) "shadowed: no accesses" 0
    (List.length (Analysis.accesses_of p "l"))

(* qcheck: [Expr.refs], [Stmt.reads] and [Stmt.writes] against naive
   references — every occurrence in source order, then the first
   occurrence of each name kept. *)
let rec nub = function
  | [] -> []
  | x :: rest -> x :: nub (List.filter (fun y -> not (String.equal x y)) rest)

let rec naive_occurrences = function
  | Const _ -> []
  | Ref x -> [ x ]
  | Index (x, i) -> x :: naive_occurrences i
  | Binop (_, a, b) -> naive_occurrences a @ naive_occurrences b
  | Unop (_, a) -> naive_occurrences a

let rec naive_exprs stmts = List.concat_map naive_stmt_exprs stmts

and naive_stmt_exprs = function
  | Assign (_, e) | Signal_assign (_, e) | Wait_until e | Emit (_, e) -> [ e ]
  | Assign_idx (_, i, e) -> [ i; e ]
  | If (branches, els) ->
    List.concat_map (fun (c, body) -> c :: naive_exprs body) branches
    @ naive_exprs els
  | While (c, body) -> c :: naive_exprs body
  | For (_, lo, hi, body) -> lo :: hi :: naive_exprs body
  | Call (_, args) ->
    List.filter_map (function Arg_expr e -> Some e | Arg_var _ -> None) args
  | Skip -> []

let rec naive_writes stmts = List.concat_map naive_stmt_writes stmts

and naive_stmt_writes = function
  | Assign (x, _) | Assign_idx (x, _, _) -> [ x ]
  | If (branches, els) ->
    List.concat_map (fun (_, body) -> naive_writes body) branches
    @ naive_writes els
  | While (_, body) -> naive_writes body
  | For (i, _, _, body) -> i :: naive_writes body
  | Call (_, args) ->
    List.filter_map (function Arg_var x -> Some x | Arg_expr _ -> None) args
  | Signal_assign _ | Wait_until _ | Emit _ | Skip -> []

let gen_stmts =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let expr =
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           let leaf =
             oneof [ map Expr.int (int_range 0 9); map Expr.ref_ name ]
           in
           if n <= 0 then leaf
           else
             oneof
               [
                 leaf;
                 map2 (fun x i -> Index (x, i)) name (self (n - 1));
                 map2 (fun a b -> Expr.(a + b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Expr.(a < b)) (self (n / 2)) (self (n / 2));
                 map Expr.neg (self (n - 1));
               ])
  in
  let arg =
    oneof [ map (fun e -> Arg_expr e) expr; map (fun x -> Arg_var x) name ]
  in
  let stmt =
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let body = list_size (int_bound 3) (self (n - 1)) in
           let simple =
             [
               map2 (fun x e -> Assign (x, e)) name expr;
               map3 (fun x i e -> Assign_idx (x, i, e)) name expr expr;
               map2 (fun x e -> Signal_assign (x, e)) name expr;
               map (fun e -> Wait_until e) expr;
               map (fun e -> Emit ("t", e)) expr;
               map (fun args -> Call ("p", args)) (list_size (int_bound 3) arg);
               return Skip;
             ]
           in
           let compound =
             [
               map2
                 (fun branches els -> If (branches, els))
                 (list_size (int_range 1 2) (pair expr body))
                 body;
               map2 (fun c b -> While (c, b)) expr body;
               map4 (fun i lo hi b -> For (i, lo, hi, b)) name expr expr body;
             ]
           in
           oneof (if n <= 0 then simple else simple @ compound))
  in
  list_size (int_bound 4) stmt

let prop_names_match_naive =
  QCheck.Test.make ~count:500
    ~name:"refs, reads and writes match a naive first-occurrence reference"
    (QCheck.make gen_stmts ~print:Printer.stmts_to_string)
    (fun stmts ->
      let exprs = naive_exprs stmts in
      let no_dups l = List.length (nub l) = List.length l in
      List.for_all
        (fun e ->
          let r = Expr.refs e in
          r = nub (naive_occurrences e) && no_dups r)
        exprs
      && Stmt.reads stmts = nub (List.concat_map naive_occurrences exprs)
      && Stmt.writes stmts = nub (naive_writes stmts))

let test_var_users () =
  let users = Analysis.var_users Workloads.Smallspecs.fig1 in
  Alcotest.(check (list string)) "x users" [ "A"; "B"; "C" ]
    (List.assoc "x" users)

let () =
  Alcotest.run "spec"
    [
      ( "expr",
        [
          tc "arith" test_eval_arith;
          tc "compare" test_eval_compare;
          tc "bool" test_eval_bool;
          tc "refs" test_eval_refs;
          tc "short-circuit" test_eval_shortcircuit;
          tc "div-by-zero" test_eval_div_zero;
          tc "type errors" test_eval_type_errors;
          tc "eval_const" test_eval_const;
          tc "refs order" test_refs_order;
          tc "rename/subst" test_rename_subst;
          tc "size" test_expr_size;
          tc "pp/parse units" test_pp_parse_units;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip;
          QCheck_alcotest.to_alcotest prop_printer_matches_format;
        ] );
      ( "stmt",
        [
          tc "reads" test_stmt_reads;
          tc "writes" test_stmt_writes;
          tc "signal writes" test_stmt_signal_writes;
          tc "calls" test_stmt_calls;
          tc "count" test_stmt_count;
          tc "rename" test_stmt_rename;
          tc "map_stmts splice" test_stmt_map_stmts;
          tc "map_exprs" test_stmt_map_exprs;
          tc "fold order" test_fold_exprs_order;
          QCheck_alcotest.to_alcotest prop_names_match_naive;
        ] );
      ( "behavior",
        [
          tc "names" test_behavior_names;
          tc "find" test_behavior_find;
          tc "parent" test_behavior_parent;
          tc "counts" test_behavior_counts;
          tc "replace" test_behavior_replace;
          tc "var decls" test_behavior_all_var_decls;
          tc "transition conds" test_transition_conds;
        ] );
      ( "program",
        [
          tc "validate workloads" test_validate_ok;
          tc "unbound ref" test_validate_unbound_ref;
          tc "duplicate behavior" test_validate_dup_behavior;
          tc "bad transition" test_validate_bad_transition;
          tc "bad call" test_validate_bad_call;
          tc "scoping" test_validate_scoping;
          tc "server exists" test_validate_server_exists;
          tc "lookup" test_lookup;
        ] );
      ( "lexer",
        [
          tc "tokens" test_lexer_tokens;
          tc "line numbers" test_lexer_line_numbers;
          tc "strings" test_lexer_string;
          tc "errors" test_lexer_errors;
          tc "multi-line string line numbers" test_lexer_multiline_string_lines;
          tc "two-char ops" test_lexer_two_char_ops;
          tc "operator at end of input" test_lexer_op_at_end;
          tc "keywords" test_lexer_keywords;
        ] );
      ( "parser/printer",
        [
          tc "workload roundtrip" test_program_roundtrip;
          tc "refined roundtrip" test_refined_roundtrip;
          tc "emit tag bytes roundtrip" test_emit_tag_bytes_roundtrip;
          tc "refined emit tag simulates" test_refined_emit_tag_simulates;
          QCheck_alcotest.to_alcotest prop_generated_roundtrip;
          tc "parse errors" test_parse_errors;
          tc "array element bound" test_array_element_bound;
          tc "located parse" test_located_parse;
          tc "line count" test_line_count;
          tc "string_of_ty" test_string_of_ty;
          tc "array syntax roundtrip" test_array_syntax_roundtrip;
          tc "fir roundtrip" test_array_fir_roundtrip;
        ] );
      ( "analysis",
        [
          tc "accesses" test_analysis_accesses;
          tc "TOC attribution" test_analysis_toc_attribution;
          tc "loop weighting" test_analysis_loop_weighting;
          tc "while weighting" test_analysis_while_weighting;
          tc "shadowing" test_analysis_shadowing;
          tc "var users" test_var_users;
        ] );
    ]
