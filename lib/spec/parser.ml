open Ast

exception Parse_error of string * int

type locations = {
  loc_behaviors : (string * int) list;
  loc_procedures : (string * int) list;
  loc_decls : (string * int) list;
}

type state = {
  toks : Lexer.located array;
  mutable pos : int;
  (* Source lines of every named construct, recorded as declarations are
     parsed (reverse order; reversed once at the end).  Diagnostics
     resolve their behavior paths against these to render file:line. *)
  mutable l_behaviors : (string * int) list;
  mutable l_procedures : (string * int) list;
  mutable l_decls : (string * int) list;
  mutable array_elements : int;  (** declared so far, program-wide *)
}

let cur st = st.toks.(st.pos)
let peek_tok st = (cur st).tok

let error st fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (msg, (cur st).lnum))) fmt

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let expect st tok =
  if peek_tok st = tok then advance st
  else
    error st "expected %s, found %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string (peek_tok st))

let expect_kw st kw = expect st (Lexer.KW kw)

let accept st tok =
  if peek_tok st = tok then begin advance st; true end else false

let accept_kw st kw = accept st (Lexer.KW kw)

let ident st =
  match peek_tok st with
  | Lexer.IDENT x -> advance st; x
  | t -> error st "expected an identifier, found %s" (Lexer.token_to_string t)

(* --- types and literals ----------------------------------------------- *)

let parse_ty st =
  if accept_kw st "bool" then TBool
  else if accept_kw st "int" then begin
    expect st Lexer.LT;
    let w =
      match peek_tok st with
      | Lexer.INT n -> advance st; n
      | t -> error st "expected a width, found %s" (Lexer.token_to_string t)
    in
    expect st Lexer.GT;
    if accept st Lexer.LBRACKET then begin
      let n =
        match peek_tok st with
        | Lexer.INT n -> advance st; n
        | t -> error st "expected an array size, found %s" (Lexer.token_to_string t)
      in
      expect st Lexer.RBRACKET;
      TArray (w, n)
    end
    else TInt w
  end
  else error st "expected a type, found %s" (Lexer.token_to_string (peek_tok st))

let parse_literal st =
  match peek_tok st with
  | Lexer.INT n -> advance st; VInt n
  | Lexer.MINUS ->
    advance st;
    begin match peek_tok st with
    | Lexer.INT n -> advance st; VInt (-n)
    | t -> error st "expected an integer, found %s" (Lexer.token_to_string t)
    end
  | Lexer.KW "true" -> advance st; VBool true
  | Lexer.KW "false" -> advance st; VBool false
  | t -> error st "expected a literal, found %s" (Lexer.token_to_string t)

(* --- expressions ------------------------------------------------------- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let rec loop acc =
    if accept_kw st "or" then loop (Binop (Or, acc, parse_and st)) else acc
  in
  loop (parse_and st)

and parse_and st =
  let rec loop acc =
    if accept_kw st "and" then loop (Binop (And, acc, parse_cmp st)) else acc
  in
  loop (parse_cmp st)

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match peek_tok st with
    | Lexer.EQ -> Some Eq
    | Lexer.NEQ -> Some Neq
    | Lexer.LT -> Some Lt
    | Lexer.LE -> Some Le
    | Lexer.GT -> Some Gt
    | Lexer.GE -> Some Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Binop (op, lhs, parse_add st)

and parse_add st =
  let rec loop acc =
    match peek_tok st with
    | Lexer.PLUS -> advance st; loop (Binop (Add, acc, parse_mul st))
    | Lexer.MINUS -> advance st; loop (Binop (Sub, acc, parse_mul st))
    | _ -> acc
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop acc =
    match peek_tok st with
    | Lexer.STAR -> advance st; loop (Binop (Mul, acc, parse_unary st))
    | Lexer.SLASH -> advance st; loop (Binop (Div, acc, parse_unary st))
    | Lexer.PERCENT -> advance st; loop (Binop (Mod, acc, parse_unary st))
    | _ -> acc
  in
  loop (parse_unary st)

and parse_unary st =
  match peek_tok st with
  | Lexer.MINUS -> advance st; Unop (Neg, parse_unary st)
  | Lexer.KW "not" -> advance st; Unop (Not, parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match peek_tok st with
  | Lexer.INT n -> advance st; Const (VInt n)
  | Lexer.KW "true" -> advance st; Const (VBool true)
  | Lexer.KW "false" -> advance st; Const (VBool false)
  | Lexer.IDENT x ->
    advance st;
    if accept st Lexer.LBRACKET then begin
      let i = parse_expr st in
      expect st Lexer.RBRACKET;
      Index (x, i)
    end
    else Ref x
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    e
  | t -> error st "expected an expression, found %s" (Lexer.token_to_string t)

(* --- statements -------------------------------------------------------- *)

let starts_stmt = function
  | Lexer.IDENT _ -> true
  | Lexer.KW ("if" | "while" | "for" | "wait" | "call" | "emit" | "skip") ->
    true
  | _ -> false

let rec parse_stmts st =
  let rec loop acc =
    if starts_stmt (peek_tok st) then loop (parse_stmt st :: acc)
    else List.rev acc
  in
  loop []

and parse_stmt st =
  match peek_tok st with
  | Lexer.IDENT x ->
    advance st;
    begin match peek_tok st with
    | Lexer.LBRACKET ->
      advance st;
      let i = parse_expr st in
      expect st Lexer.RBRACKET;
      expect st Lexer.ASSIGN;
      let e = parse_expr st in
      expect st Lexer.SEMI;
      Assign_idx (x, i, e)
    | Lexer.ASSIGN ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.SEMI;
      Assign (x, e)
    | Lexer.LE ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.SEMI;
      Signal_assign (x, e)
    | t ->
      error st "expected := or <= after %s, found %s" x
        (Lexer.token_to_string t)
    end
  | Lexer.KW "if" ->
    advance st;
    let c0 = parse_expr st in
    expect_kw st "then";
    let body0 = parse_stmts st in
    let rec elsifs acc =
      if accept_kw st "elsif" then begin
        let c = parse_expr st in
        expect_kw st "then";
        let body = parse_stmts st in
        elsifs ((c, body) :: acc)
      end
      else List.rev acc
    in
    let branches = (c0, body0) :: elsifs [] in
    let els = if accept_kw st "else" then parse_stmts st else [] in
    expect_kw st "end";
    expect_kw st "if";
    expect st Lexer.SEMI;
    If (branches, els)
  | Lexer.KW "while" ->
    advance st;
    let c = parse_expr st in
    expect_kw st "do";
    let body = parse_stmts st in
    expect_kw st "end";
    expect_kw st "while";
    expect st Lexer.SEMI;
    While (c, body)
  | Lexer.KW "for" ->
    advance st;
    let i = ident st in
    expect st Lexer.ASSIGN;
    let lo = parse_expr st in
    expect_kw st "to";
    let hi = parse_expr st in
    expect_kw st "do";
    let body = parse_stmts st in
    expect_kw st "end";
    expect_kw st "for";
    expect st Lexer.SEMI;
    For (i, lo, hi, body)
  | Lexer.KW "wait" ->
    advance st;
    expect_kw st "until";
    let c = parse_expr st in
    expect st Lexer.SEMI;
    Wait_until c
  | Lexer.KW "call" ->
    advance st;
    let name = ident st in
    expect st Lexer.LPAREN;
    let args =
      if peek_tok st = Lexer.RPAREN then []
      else begin
        let parse_arg st =
          if accept_kw st "out" then Arg_var (ident st)
          else Arg_expr (parse_expr st)
        in
        let rec loop acc =
          if accept st Lexer.COMMA then loop (parse_arg st :: acc)
          else List.rev acc
        in
        loop [ parse_arg st ]
      end
    in
    expect st Lexer.RPAREN;
    expect st Lexer.SEMI;
    Call (name, args)
  | Lexer.KW "emit" ->
    advance st;
    let tag =
      match peek_tok st with
      | Lexer.STRING s -> advance st; s
      | t -> error st "expected a string tag, found %s" (Lexer.token_to_string t)
    in
    let e = parse_expr st in
    expect st Lexer.SEMI;
    Emit (tag, e)
  | Lexer.KW "skip" ->
    advance st;
    expect st Lexer.SEMI;
    Skip
  | t -> error st "expected a statement, found %s" (Lexer.token_to_string t)

(* --- declarations ------------------------------------------------------ *)

(* The simulator allocates every declared array element up front, so a
   program's arrays together may hold at most 2^20 elements. *)
let max_array_elements = 1 lsl 20

let count_array_elements st ~lnum name = function
  | TArray (_, n) ->
    if n > max_array_elements - st.array_elements then
      raise
        (Parse_error
           ( Printf.sprintf
               "array %s: %d elements take the program's arrays past %d \
                elements"
               name n max_array_elements,
             lnum ));
    st.array_elements <- st.array_elements + n
  | TBool | TInt _ -> ()

let parse_var_decl st =
  (* "var" already consumed by the caller *)
  let lnum = (cur st).Lexer.lnum in
  let name = ident st in
  st.l_decls <- (name, lnum) :: st.l_decls;
  expect st Lexer.COLON;
  let ty = parse_ty st in
  count_array_elements st ~lnum name ty;
  let init = if accept st Lexer.ASSIGN then Some (parse_literal st) else None in
  expect st Lexer.SEMI;
  { v_name = name; v_ty = ty; v_init = init }

let parse_var_decls st =
  let rec loop acc =
    if accept_kw st "var" then loop (parse_var_decl st :: acc)
    else List.rev acc
  in
  loop []

let parse_signal_decl st =
  let lnum = (cur st).Lexer.lnum in
  let name = ident st in
  st.l_decls <- (name, lnum) :: st.l_decls;
  expect st Lexer.COLON;
  let ty = parse_ty st in
  count_array_elements st ~lnum name ty;
  let init = if accept st Lexer.ASSIGN then Some (parse_literal st) else None in
  expect st Lexer.SEMI;
  { s_name = name; s_ty = ty; s_init = init }

let parse_param st =
  let name = ident st in
  expect st Lexer.COLON;
  let mode =
    if accept_kw st "in" then Mode_in
    else if accept_kw st "out" then Mode_out
    else error st "expected in or out, found %s" (Lexer.token_to_string (peek_tok st))
  in
  let ty = parse_ty st in
  { prm_name = name; prm_mode = mode; prm_ty = ty }

let parse_proc st =
  let lnum = (cur st).Lexer.lnum in
  let name = ident st in
  st.l_procedures <- (name, lnum) :: st.l_procedures;
  expect st Lexer.LPAREN;
  let params =
    if peek_tok st = Lexer.RPAREN then []
    else begin
      let rec loop acc =
        if accept st Lexer.SEMI then loop (parse_param st :: acc)
        else List.rev acc
      in
      loop [ parse_param st ]
    end
  in
  expect st Lexer.RPAREN;
  expect_kw st "is";
  let vars = parse_var_decls st in
  expect_kw st "begin";
  let body = parse_stmts st in
  expect_kw st "end";
  expect_kw st "procedure";
  expect st Lexer.SEMI;
  { prc_name = name; prc_params = params; prc_vars = vars; prc_body = body }

(* --- behaviors ---------------------------------------------------------- *)

let rec parse_behavior st =
  let lnum = (cur st).Lexer.lnum in
  expect_kw st "behavior";
  let name = ident st in
  st.l_behaviors <- (name, lnum) :: st.l_behaviors;
  expect st Lexer.COLON;
  let kind =
    if accept_kw st "leaf" then `Leaf
    else if accept_kw st "seq" then `Seq
    else if accept_kw st "par" then `Par
    else
      error st "expected leaf, seq or par, found %s"
        (Lexer.token_to_string (peek_tok st))
  in
  expect_kw st "is";
  let vars = parse_var_decls st in
  expect_kw st "begin";
  let body =
    match kind with
    | `Leaf -> Leaf (parse_stmts st)
    | `Par ->
      let rec loop acc =
        if peek_tok st = Lexer.KW "behavior" then begin
          let b = parse_behavior st in
          expect st Lexer.SEMI;
          loop (b :: acc)
        end
        else List.rev acc
      in
      Par (loop [])
    | `Seq ->
      let rec loop acc =
        if peek_tok st = Lexer.KW "behavior" then begin
          let b = parse_behavior st in
          let transitions =
            if accept st Lexer.ARROW then parse_transitions st else []
          in
          expect st Lexer.SEMI;
          loop ({ a_behavior = b; a_transitions = transitions } :: acc)
        end
        else List.rev acc
      in
      Seq (loop [])
  in
  expect_kw st "end";
  expect_kw st "behavior";
  { b_name = name; b_vars = vars; b_body = body }

and parse_transitions st =
  let parse_transition st =
    let cond =
      if accept st Lexer.LPAREN then begin
        let c = parse_expr st in
        expect st Lexer.RPAREN;
        Some c
      end
      else None
    in
    let target =
      if accept_kw st "complete" then Complete else Goto (ident st)
    in
    { t_cond = cond; t_target = target }
  in
  let rec loop acc =
    if accept st Lexer.COMMA then loop (parse_transition st :: acc)
    else List.rev acc
  in
  loop [ parse_transition st ]

(* --- program ------------------------------------------------------------ *)

let parse_program st =
  expect_kw st "program";
  let name = ident st in
  expect_kw st "is";
  let vars = ref [] and signals = ref [] and procs = ref [] in
  let servers = ref [] in
  let rec decls () =
    if accept_kw st "var" then begin
      vars := parse_var_decl st :: !vars;
      decls ()
    end
    else if accept_kw st "signal" then begin
      signals := parse_signal_decl st :: !signals;
      decls ()
    end
    else if accept_kw st "servers" then begin
      let rec loop acc =
        if accept st Lexer.COMMA then loop (ident st :: acc) else List.rev acc
      in
      servers := !servers @ loop [ ident st ];
      expect st Lexer.SEMI;
      decls ()
    end
    else if accept_kw st "procedure" then begin
      procs := parse_proc st :: !procs;
      decls ()
    end
  in
  decls ();
  let top = parse_behavior st in
  expect_kw st "end";
  expect_kw st "program";
  expect st Lexer.EOF;
  {
    p_name = name;
    p_vars = List.rev !vars;
    p_signals = List.rev !signals;
    p_procs = List.rev !procs;
    p_top = top;
    p_servers = !servers;
  }

let state_of_string src =
  {
    toks = Array.of_list (Lexer.tokenize src);
    pos = 0;
    l_behaviors = [];
    l_procedures = [];
    l_decls = [];
    array_elements = 0;
  }

let locations_of st =
  {
    loc_behaviors = List.rev st.l_behaviors;
    loc_procedures = List.rev st.l_procedures;
    loc_decls = List.rev st.l_decls;
  }

let program_of_string_exn src = parse_program (state_of_string src)

let program_of_string_located src =
  match
    let st = state_of_string src in
    let p = parse_program st in
    (p, locations_of st)
  with
  | result -> Ok result
  | exception Parse_error (msg, lnum) ->
    Error (Printf.sprintf "parse error at line %d: %s" lnum msg)
  | exception Lexer.Lex_error (msg, lnum) ->
    Error (Printf.sprintf "lex error at line %d: %s" lnum msg)

let program_of_string src =
  Result.map fst (program_of_string_located src)

let valid_program_of_string src =
  match program_of_string_located src with
  | Error _ as e -> e
  | Ok (p, _) as ok -> (
    match Program.validate p with
    | Ok () -> ok
    | Error msgs -> Error ("invalid specification: " ^ String.concat "; " msgs))

(* Resolve a diagnostic's behavior path to a source line: deepest path
   element with a recorded location wins — it is the most specific
   position the diagnostic names.  Elements are either behavior names or
   ["procedure f"] markers (see {!Diagnostic.d_path}). *)
let line_of_path locs path =
  let resolve element =
    match String.index_opt element ' ' with
    | Some i when String.sub element 0 i = "procedure" ->
      let name =
        String.sub element (i + 1) (String.length element - i - 1)
      in
      List.assoc_opt name locs.loc_procedures
    | _ -> List.assoc_opt element locs.loc_behaviors
  in
  List.fold_left
    (fun acc element ->
      match resolve element with Some l -> Some l | None -> acc)
    None path

let expr_of_string_exn src =
  let st = state_of_string src in
  let e = parse_expr st in
  expect st Lexer.EOF;
  e

let stmts_of_string_exn src =
  let st = state_of_string src in
  let stmts = parse_stmts st in
  expect st Lexer.EOF;
  stmts
