(** The bytecode compiler and register VM in isolation.

    Golden tests pin the instruction listing {!Sim.Compile} produces for
    each statement shape — including the fused operand forms
    (cell/const operands baked into [binop], constant stores, the
    signal-equality wait fast path, compare-and-branch conditions) that
    the optimizer relies on.  A qcheck property then checks the compiled
    condition evaluator against {!Spec.Expr.eval} on generated
    expressions, values and errors alike, with division and modulo by
    zero in range; a second runs generated statement bodies on the VM
    and on the tree-walker {!Sim.Interp} in the same fuel slices. *)

open Helpers

let int_var name = { Spec.Ast.v_name = name; v_ty = Spec.Ast.TInt 16; v_init = None }
let bool_var name = { Spec.Ast.v_name = name; v_ty = Spec.Ast.TBool; v_init = None }

let frame () =
  Sim.Env.make ~owner:"L"
    [
      int_var "x";
      int_var "y";
      bool_var "p";
      int_var "k";
      { Spec.Ast.v_name = "a"; v_ty = Spec.Ast.TArray (8, 4); v_init = None };
    ]

let signals () =
  Sim.Sigtable.make
    [
      { Spec.Ast.s_name = "go"; s_ty = Spec.Ast.TBool; s_init = None };
      { Spec.Ast.s_name = "s"; s_ty = Spec.Ast.TInt 16; s_init = Some (Spec.Ast.VInt 3) };
    ]

let procs =
  [
    {
      Spec.Ast.prc_name = "dbl";
      prc_params =
        [
          { Spec.Ast.prm_name = "v"; prm_mode = Spec.Ast.Mode_in; prm_ty = Spec.Ast.TInt 16 };
          { Spec.Ast.prm_name = "r"; prm_mode = Spec.Ast.Mode_out; prm_ty = Spec.Ast.TInt 16 };
        ];
      prc_vars = [];
      prc_body = Spec.Parser.stmts_of_string_exn "r := v + v;";
    };
  ]

let listing ?(epilogue = `Halt) src =
  Sim.Opcode.to_string
    (Sim.Compile.body ~owner:"L" ~frame:(frame ()) ~signals:(signals ())
       ~procs ~epilogue
       (Spec.Parser.stmts_of_string_exn src))

let cond_listing src =
  Sim.Opcode.to_string
    (Sim.Compile.cond ~frame:(frame ()) ~signals:(signals ())
       (Spec.Parser.expr_of_string_exn src))

let golden label expected actual () = Alcotest.(check string) label expected actual

(* Statement bodies.  The [*] column marks charging instructions — the
   ones that consume an interpreter step, mirroring the tree-walker's
   step accounting exactly. *)

let body_goldens =
  [
    ( "assign constant folds to a constant store",
      "x := 3;",
      "  0  store      x <- 3  *\n\
      \  1  charge  *\n\
      \  2  halt\n" );
    ( "cell+const operand fuses into one binop",
      "x := x + 1;",
      "  0  binop      r0 <- x + 1\n\
      \  1  store      x <- r0  *\n\
      \  2  charge  *\n\
      \  3  halt\n" );
    ( "two cells load then combine",
      "x := x + y;",
      "  0  load_cell  r1 <- y\n\
      \  1  load_cell  r0 <- x\n\
      \  2  binop      r0 <- r0 + r1\n\
      \  3  store      x <- r0  *\n\
      \  4  charge  *\n\
      \  5  halt\n" );
    ( "signal operand fuses by interned id",
      "x := s + 2;",
      "  0  binop      r0 <- s#1 + 2\n\
      \  1  store      x <- r0  *\n\
      \  2  charge  *\n\
      \  3  halt\n" );
    ( "signal assignment schedules at commit",
      "s <= x * 2;",
      "  0  binop      r0 <- x * 2\n\
      \  1  store_sig  s#1 <- r0  *\n\
      \  2  charge  *\n\
      \  3  halt\n" );
    ( "if/else branches join on end_jmp",
      "if x = 0 then x := 1; else x := 2; end if;",
      "  0  br_if      x = 0 -> 4\n\
      \  1  charge  *\n\
      \  2  store      x <- 2  *\n\
      \  3  end_jmp    7  *\n\
      \  4  charge  *\n\
      \  5  store      x <- 1  *\n\
      \  6  end_jmp    7  *\n\
      \  7  charge  *\n\
      \  8  halt\n" );
    ( "while retests its condition in place",
      "while x < 4 do x := x + 1; end while;",
      "  0  charge  *\n\
      \  1  br_ifnot   x < 4 -> 6\n\
      \  2  charge  *\n\
      \  3  binop      r0 <- x + 1\n\
      \  4  store      x <- r0  *\n\
      \  5  end_jmp    1  *\n\
      \  6  charge  *\n\
      \  7  charge  *\n\
      \  8  halt\n" );
    ( "and skips its right operand on a false left",
      "if x = 0 and p = true then x := 1; end if;",
      "  0  br_ifnot   x = 0 -> 2\n\
      \  1  br_if      p = true -> 4\n\
      \  2  charge  *\n\
      \  3  end_jmp    7  *\n\
      \  4  charge  *\n\
      \  5  store      x <- 1  *\n\
      \  6  end_jmp    7  *\n\
      \  7  charge  *\n\
      \  8  halt\n" );
    ( "not flips the branch sense inside an or",
      "if not (x < y) or s = 3 then x := 1; elsif go = true then x := 2; \
       else x := 3; end if;",
      "  0  br_ifnot   x < y -> 6\n\
      \  1  br_if      s#1 = 3 -> 6\n\
      \  2  br_if      go#0 = true -> 9\n\
      \  3  charge  *\n\
      \  4  store      x <- 3  *\n\
      \  5  end_jmp    12  *\n\
      \  6  charge  *\n\
      \  7  store      x <- 1  *\n\
      \  8  end_jmp    12  *\n\
      \  9  charge  *\n\
      \ 10  store      x <- 2  *\n\
      \ 11  end_jmp    12  *\n\
      \ 12  charge  *\n\
      \ 13  halt\n" );
    ( "while not exits on the inner condition",
      "while not (s = 0) do x := x + 1; end while;",
      "  0  charge  *\n\
      \  1  br_if      s#1 = 0 -> 6\n\
      \  2  charge  *\n\
      \  3  binop      r0 <- x + 1\n\
      \  4  store      x <- r0  *\n\
      \  5  end_jmp    1  *\n\
      \  6  charge  *\n\
      \  7  charge  *\n\
      \  8  halt\n" );
    ( "a condition with arithmetic stays on the value path",
      "if x + 1 > y then x := 0; end if;",
      "  0  load_cell  r1 <- y\n\
      \  1  binop      r0 <- x + 1\n\
      \  2  binop      r0 <- r0 > r1\n\
      \  3  if_jmp     r0 -> 6  *\n\
      \  4  charge  *\n\
      \  5  end_jmp    8  *\n\
      \  6  store      x <- 0  *\n\
      \  7  end_jmp    8  *\n\
      \  8  charge  *\n\
      \  9  halt\n" );
    ( "an array read keeps a while on the value path",
      "while a[0] = x do x := x + 1; end while;",
      "  0  charge  *\n\
      \  1  load_cell  r1 <- x\n\
      \  2  const      r0 <- 0\n\
      \  3  load_arr   r0 <- a[r0]\n\
      \  4  binop      r0 <- r0 = r1\n\
      \  5  while_jmp  r0 exit 9  *\n\
      \  6  binop      r0 <- x + 1\n\
      \  7  store      x <- r0  *\n\
      \  8  end_jmp    1  *\n\
      \  9  charge  *\n\
      \ 10  halt\n" );
    ( "for keeps bounds in registers",
      "for y := 0 to 3 do x := x + y; end for;",
      "  0  const      r0 <- 0\n\
      \  1  const      r1 <- 3\n\
      \  2  charge  *\n\
      \  3  for_test   r0 <= r1 exit 9  *\n\
      \  4  load_cell  r3 <- y\n\
      \  5  load_cell  r2 <- x\n\
      \  6  binop      r2 <- r2 + r3\n\
      \  7  store      x <- r2  *\n\
      \  8  for_end    r0++ -> 3  *\n\
      \  9  charge  *\n\
      \ 10  halt\n" );
    ( "signal-equality wait takes the fast opcode",
      "wait until go = true;",
      "  0  charge  *\n\
      \  1  wait_sig   #0 = true  *\n\
      \  2  charge  *\n\
      \  3  halt\n" );
    ( "general wait re-evaluates its condition",
      "wait until x + s > 3;",
      "  0  charge  *\n\
      \  1  load_sig   r1 <- s#1\n\
      \  2  load_cell  r0 <- x\n\
      \  3  binop      r0 <- r0 + r1\n\
      \  4  binop      r0 <- r0 > 3\n\
      \  5  wait       r0  *\n\
      \  6  charge  *\n\
      \  7  halt\n" );
    ( "wait over or blocks when neither operand holds",
      "wait until go = false or s = x;",
      "  0  charge  *\n\
      \  1  br_if      go#0 = false -> 4\n\
      \  2  br_if      s#1 = x -> 4\n\
      \  3  wait_never\n\
      \  4  charge  *\n\
      \  5  charge  *\n\
      \  6  halt\n" );
    ( "wait over and with not",
      "wait until x > 0 and not (p = false);",
      "  0  charge  *\n\
      \  1  br_ifnot   x > 0 -> 3\n\
      \  2  br_ifnot   p = false -> 4\n\
      \  3  wait_never\n\
      \  4  charge  *\n\
      \  5  charge  *\n\
      \  6  halt\n" );
    ( "wait on a bare variable stays on the value path",
      "wait until p;",
      "  0  charge  *\n\
      \  1  load_cell  r0 <- p\n\
      \  2  wait       r0  *\n\
      \  3  charge  *\n\
      \  4  halt\n" );
    ( "wait on a constant false never wakes",
      "wait until false;",
      "  0  charge  *\n\
      \  1  wait_never\n\
      \  2  charge  *\n\
      \  3  halt\n" );
    ( "emit evaluates once then records",
      "emit \"out\" x;",
      "  0  load_cell  r0 <- x\n\
      \  1  emit       \"out\" r0  *\n\
      \  2  charge  *\n\
      \  3  halt\n" );
    ( "constant emit skips the load",
      "emit \"t\" 7;",
      "  0  emit       \"t\" 7  *\n\
      \  1  charge  *\n\
      \  2  halt\n" );
    ( "array element store and load",
      "a[1] := x; x := a[0];",
      "  0  const      r0 <- 1\n\
      \  1  load_cell  r1 <- x\n\
      \  2  store_arr  a[r0] <- r1  *\n\
      \  3  const      r0 <- 0\n\
      \  4  load_arr   r0 <- a[r0]\n\
      \  5  store      x <- r0  *\n\
      \  6  charge  *\n\
      \  7  halt\n" );
    ( "call stages in-args then transfers",
      "call dbl(x + 1, out x);",
      "  0  binop      r0 <- x + 1\n\
      \  1  call       dbl/2  *\n\
      \  2  charge  *\n\
      \  3  halt\n" );
    ( "skip charges like the tree-walker",
      "skip;",
      "  0  charge  *\n\
      \  1  charge  *\n\
      \  2  halt\n" );
  ]

let test_body_goldens () =
  List.iter (fun (label, src, expected) -> golden label expected (listing src) ())
    body_goldens

let test_procedure_epilogue () =
  (* A procedure body pops its activation instead of halting the thread. *)
  golden "ret epilogue"
    "  0  store      x <- 1  *\n\
    \  1  charge  *\n\
    \  2  ret  *\n"
    (listing ~epilogue:`Ret "x := 1;") ()

let test_cond_goldens () =
  golden "constant condition folds completely"
    "  0  const      r0 <- true\n\
    \  1  yield      r0\n"
    (cond_listing "1 + 2 = 3") ();
  golden "signal compare fuses the signal read"
    "  0  binop      r0 <- s#1 > 3\n\
    \  1  yield      r0\n"
    (cond_listing "s > 3") ();
  golden "division stays a runtime op"
    "  0  load_cell  r1 <- y\n\
    \  1  load_cell  r0 <- x\n\
    \  2  binop      r0 <- r0 / r1\n\
    \  3  binop      r0 <- r0 = 2\n\
    \  4  yield      r0\n"
    (cond_listing "x / y = 2") ()

(* --- compiled condition = Expr.eval, on generated expressions ---------- *)

(* One evaluation environment shared by both sides: frame cells for
   x/y/p, interned signals s/go.  The compiled side bakes the cell refs
   and signal ids in, so the cells are mutated in place per case. *)
let cond_env () =
  let fr = frame () in
  let sg = signals () in
  let cx =
    {
      Sim.Interp.cx_signals = sg;
      cx_trace = Sim.Trace.make ();
      cx_procs = [];
      cx_delta = 0;
    }
  in
  let cell name =
    match Sim.Env.find_cell fr name with
    | Some c -> c
    | None -> Alcotest.failf "no cell %s" name
  in
  (fr, sg, cx, cell "x", cell "y", cell "p")

let eval_compiled cx fr sg e =
  let cp = Sim.Vm.compile_cond ~frame:fr ~signals:sg e in
  ignore sg;
  Sim.Vm.eval_cond cx cp

let eval_tree fr sg e =
  Spec.Expr.eval
    ~lookup:(fun name ->
      match Sim.Env.lookup fr name with
      | Some v -> Some v
      | None -> Sim.Sigtable.read sg name)
    e

let outcome f =
  match f () with
  | v -> Ok v
  | exception Spec.Expr.Eval_error m -> Error m

let outcome_testable =
  Alcotest.(result value_testable string)

let check_cond_agree label fr sg cx e =
  Alcotest.check outcome_testable label
    (outcome (fun () -> eval_tree fr sg e))
    (outcome (fun () -> eval_compiled cx fr sg e))

let test_div_mod_edges () =
  let fr, sg, cx, x, y, _ = cond_env () in
  let e = Spec.Parser.expr_of_string_exn in
  List.iter
    (fun (xv, yv) ->
      x := Spec.Ast.VInt xv;
      y := Spec.Ast.VInt yv;
      List.iter
        (fun src ->
          check_cond_agree
            (Printf.sprintf "%s with x=%d y=%d" src xv yv)
            fr sg cx (e src))
        [ "x / y"; "x % y"; "x / y = 2 or y = 0"; "(0 - x) % y" ])
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (7, 0); (0, 3); (-1, 1) ]

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Spec.Ast.Const (Spec.Ast.VInt i)) (int_range (-3) 3);
        map (fun b -> Spec.Ast.Const (Spec.Ast.VBool b)) bool;
        oneofl
          [
            Spec.Ast.Ref "x";
            Spec.Ast.Ref "y";
            Spec.Ast.Ref "p";
            Spec.Ast.Ref "s";
            Spec.Ast.Ref "go";
          ];
      ]
  in
  let ops =
    [
      Spec.Ast.Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Le; Gt; Ge; And; Or;
    ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 4,
                 map3
                   (fun op a b -> Spec.Ast.Binop (op, a, b))
                   (oneofl ops) (self (n / 2)) (self (n / 2)) );
               ( 1,
                 map2
                   (fun op a -> Spec.Ast.Unop (op, a))
                   (oneofl [ Spec.Ast.Neg; Spec.Ast.Not ])
                   (self (n - 1)) );
             ])

let prop_cond_agrees =
  QCheck.Test.make ~count:500
    ~name:"compiled condition = Expr.eval (values and errors)"
    QCheck.(make ~print:(Format.asprintf "%a" Spec.Expr.pp) gen_expr)
    (fun e ->
      let fr, sg, cx, x, y, p = cond_env () in
      List.for_all
        (fun (xv, yv, pv) ->
          x := Spec.Ast.VInt xv;
          y := Spec.Ast.VInt yv;
          p := Spec.Ast.VBool pv;
          outcome (fun () -> eval_tree fr sg e)
          = outcome (fun () -> eval_compiled cx fr sg e))
        [ (5, 2, true); (-4, 0, false); (0, -1, true) ])

(* --- VM = tree-walker on generated statement bodies ------------------- *)

(* Bodies of if/elsif/else, bounded while and wait until statements whose
   conditions mix and/or/not with comparisons of int and bool cells,
   signals and constants: the shapes that lower to compare-and-branch
   code, ill-typed ones ([p < 3]) included.  A few conditions stay on the
   value path (a bare name, as in [x and y]; arithmetic; an unbound
   name).  Every while is guarded by [k < 3], and only the loop bump
   writes [k], so every body finishes, fails or blocks. *)

let gen_stmt_cond =
  let open QCheck.Gen in
  let int_atom =
    frequency
      [
        (2, map (fun i -> Spec.Ast.Const (Spec.Ast.VInt i)) (int_range (-1) 3));
        (5, map (fun x -> Spec.Ast.Ref x) (oneofl [ "x"; "y"; "k"; "s" ]));
      ]
  and bool_atom =
    frequency
      [
        (1, map (fun b -> Spec.Ast.Const (Spec.Ast.VBool b)) bool);
        (3, map (fun x -> Spec.Ast.Ref x) (oneofl [ "p"; "go" ]));
      ]
  in
  let any_atom = frequency [ (2, int_atom); (1, bool_atom) ] in
  let compare ops l r =
    map3 (fun op a b -> Spec.Ast.Binop (op, a, b)) (oneofl ops) l r
  in
  let leaf =
    frequency
      [
        (4, compare Spec.Ast.[ Lt; Le; Gt; Ge ] int_atom int_atom);
        (2, compare Spec.Ast.[ Eq; Neq ] int_atom int_atom);
        (2, compare Spec.Ast.[ Eq; Neq ] bool_atom bool_atom);
        (1, compare Spec.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] any_atom any_atom);
        (1, map (fun b -> Spec.Ast.Const (Spec.Ast.VBool b)) bool);
        ( 1,
          oneofl
            (List.map Spec.Parser.expr_of_string_exn
               [ "p"; "x"; "x + 1 > y"; "nosuch = 1" ]) );
      ]
  in
  int_range 0 3
  >>= fix (fun self n ->
          if n <= 0 then leaf
          else
            frequency
              [
                (2, leaf);
                ( 2,
                  map3
                    (fun op l r -> Spec.Ast.Binop (op, l, r))
                    (oneofl Spec.Ast.[ And; Or ])
                    (self (n - 1)) (self (n - 1)) );
                (1, map (fun a -> Spec.Ast.Unop (Spec.Ast.Not, a)) (self (n - 1)));
              ])

let stmt src = List.hd (Spec.Parser.stmts_of_string_exn src)

let gen_body =
  let open QCheck.Gen in
  let simple =
    oneofl
      (List.map stmt
         [
           "x := x + 1;"; "y := y - 1;"; "x := y;"; "p := x < y;";
           "p := not p;"; "s <= x;"; "s <= y + 1;"; "go <= p;";
           "go <= x = y;"; "emit \"e\" x;"; "skip;";
         ])
  in
  let bump = stmt "k := k + 1;" and guard = Spec.Parser.expr_of_string_exn "k < 3" in
  let stmt =
    fix (fun self d ->
        let body = list_size (int_range 1 3) (self (d - 1)) in
        if d <= 0 then simple
        else
          frequency
            [
              (3, simple);
              ( 2,
                map2
                  (fun branches els -> Spec.Ast.If (branches, els))
                  (list_size (int_range 1 3) (pair gen_stmt_cond body))
                  (frequency [ (1, return []); (1, body) ]) );
              ( 1,
                map3
                  (fun c guard_first body ->
                    let c =
                      if guard_first then Spec.Ast.Binop (Spec.Ast.And, guard, c)
                      else Spec.Ast.Binop (Spec.Ast.And, c, guard)
                    in
                    Spec.Ast.While (c, body @ [ bump ]))
                  gen_stmt_cond bool body );
              (2, map (fun c -> Spec.Ast.Wait_until c) gen_stmt_cond);
            ])
  in
  list_size (int_range 1 4) (stmt 2)

(* Values another process might leave in the cells and signals a blocked
   body waits on ([k] is never poked, so loops stay bounded). *)
let gen_pokes =
  let open QCheck.Gen in
  list_size (int_range 0 6)
    (pair
       (oneofl [ "x"; "y"; "p"; "s"; "go" ])
       (frequency
          [
            (2, map (fun i -> Spec.Ast.VInt i) (int_range (-1) 3));
            (1, map (fun b -> Spec.Ast.VBool b) bool);
          ]))

let show_value v = Format.asprintf "%a" Spec.Expr.pp_value v

(* Run [body] on a fresh machine in slices of the given fuels (cycled),
   committing the scheduled signals after every slice; when the body
   blocks, apply the next poke and go on.  One line per slice: status,
   steps or raised message, then every cell and the committed signal
   changes; then the emitted events. *)
let slices ~start body fuels pokes =
  let fr = frame () and sg = signals () in
  let cx =
    {
      Sim.Interp.cx_signals = sg;
      cx_trace = Sim.Trace.make ();
      cx_procs = procs;
      cx_delta = 0;
    }
  in
  let slice = start ~frame:fr cx body in
  let fuels = Array.of_list fuels in
  let rec go i pokes lines =
    let result, next =
      match slice fuels.(i mod Array.length fuels) with
      | `Progress n -> (Printf.sprintf "progress %d" n, `Go)
      | `Blocked (c, n) ->
        (Printf.sprintf "blocked at %s after %d" (Spec.Expr.to_string c) n, `Blocked)
      | `Finished n -> (Printf.sprintf "finished %d" n, `Stop)
      | exception Sim.Interp.Run_error m -> ("run error: " ^ m, `Stop)
      | exception Spec.Expr.Eval_error m -> ("eval error: " ^ m, `Stop)
    in
    let cells =
      List.map
        (fun x -> x ^ "=" ^ show_value (Option.get (Sim.Env.lookup fr x)))
        [ "x"; "y"; "p"; "k" ]
    and changes =
      List.map (fun (n, v) -> n ^ "<=" ^ show_value v) (Sim.Sigtable.commit_changes sg)
    in
    let lines = String.concat " " ((result :: cells) @ changes) :: lines in
    match (next, pokes) with
    | `Go, _ when i < 300 -> go (i + 1) pokes lines
    | `Blocked, (x, v) :: rest ->
      begin match Sim.Env.find_cell fr x with
      | Some cell -> cell := v
      | None -> ignore (Sim.Sigtable.poke sg x v)
      end;
      go (i + 1) rest lines
    | _ ->
      let events =
        List.map
          (fun e -> e.Sim.Trace.ev_tag ^ " " ^ show_value e.Sim.Trace.ev_value)
          (Sim.Trace.events cx.Sim.Interp.cx_trace)
      in
      List.rev_append lines events
  in
  go 0 pokes []

let vm_slices =
  slices ~start:(fun ~frame cx body ->
      let t = Sim.Vm.make ~owner:"L" ~frame body in
      fun fuel ->
        let st = Sim.Vm.run cx t ~fuel in
        let n = t.Sim.Vm.th_steps in
        match (st, Sim.Vm.blocked_site t) with
        | Sim.Vm.Progress, _ -> `Progress n
        | Blocked, Some ws -> `Blocked (ws.Sim.Opcode.ws_expr, n)
        | Blocked, None -> Alcotest.fail "blocked without a wait site"
        | Finished, _ -> `Finished n)

let interp_slices =
  slices ~start:(fun ~frame cx body ->
      let ex = Sim.Interp.make_exec ~owner:"L" ~frame body in
      fun fuel ->
        match Sim.Interp.run cx ex ~fuel with
        | Sim.Interp.Progress, n -> `Progress n
        | Blocked c, n -> `Blocked (c, n)
        | Finished, n -> `Finished n)

let prop_bodies_agree =
  QCheck.Test.make ~count:500
    ~name:"VM = tree-walker on generated bodies (fuel slices, waits, errors)"
    QCheck.(
      make
        ~print:(fun (body, fuels, pokes) ->
          Printf.sprintf "%s\nfuels %s\npokes %s"
            (Spec.Printer.stmts_to_string body)
            (String.concat "," (List.map string_of_int fuels))
            (String.concat ", "
               (List.map (fun (x, v) -> x ^ "=" ^ show_value v) pokes)))
        Gen.(triple gen_body (list_size (int_range 1 4) (int_range 1 4)) gen_pokes))
    (fun (body, fuels, pokes) ->
      let v = vm_slices body fuels pokes and t = interp_slices body fuels pokes in
      v = t
      || QCheck.Test.fail_reportf "VM:\n%s\ntree-walker:\n%s"
           (String.concat "\n" v) (String.concat "\n" t))

let () =
  Alcotest.run "vm"
    [
      ( "compile",
        [
          tc "statement listings" test_body_goldens;
          tc "procedure epilogue" test_procedure_epilogue;
          tc "condition listings" test_cond_goldens;
        ] );
      ("conditions", [ tc "div/mod edge cases" test_div_mod_edges ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cond_agrees;
          QCheck_alcotest.to_alcotest prop_bodies_agree;
        ] );
    ]
