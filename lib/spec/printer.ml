open Ast

(* The printer works on a Buffer with explicit indentation rather than
   Format boxes: the paper's size metric is "lines of specification", so
   line breaks must be fully deterministic. *)

let string_of_ty = function
  | TBool -> "bool"
  | TInt w -> Printf.sprintf "int<%d>" w
  | TArray (w, n) -> Printf.sprintf "int<%d>[%d]" w n

type ctx = { buf : Buffer.t; mutable indent : int }

(* Expressions print with [%a] and {!Expr.add_expr}, straight into the
   buffer. *)
let line ctx fmt =
  for _ = 1 to 2 * ctx.indent do
    Buffer.add_char ctx.buf ' '
  done;
  Printf.kbprintf (fun buf -> Buffer.add_char buf '\n') ctx.buf fmt

let with_indent ctx f =
  ctx.indent <- ctx.indent + 1;
  f ();
  ctx.indent <- ctx.indent - 1

let add_init buf = function
  | None -> ()
  | Some v ->
    Buffer.add_string buf " := ";
    Expr.add_value buf v

let emit_var ctx v =
  line ctx "var %s : %s%a;" v.v_name (string_of_ty v.v_ty) add_init v.v_init

let emit_signal ctx s =
  line ctx "signal %s : %s%a;" s.s_name (string_of_ty s.s_ty) add_init
    s.s_init

let add_args buf args =
  List.iteri
    (fun i arg ->
      if i > 0 then Buffer.add_string buf ", ";
      match arg with
      | Arg_expr e -> Expr.add_expr buf e
      | Arg_var x ->
        Buffer.add_string buf "out ";
        Buffer.add_string buf x)
    args

let rec emit_stmts ctx stmts = List.iter (emit_stmt ctx) stmts

and emit_stmt ctx = function
  | Assign (x, e) -> line ctx "%s := %a;" x Expr.add_expr e
  | Assign_idx (x, i, e) ->
    line ctx "%s[%a] := %a;" x Expr.add_expr i Expr.add_expr e
  | Signal_assign (s, e) -> line ctx "%s <= %a;" s Expr.add_expr e
  | If (branches, els) ->
    begin match branches with
    | [] -> ()
    | (c0, body0) :: rest ->
      line ctx "if %a then" Expr.add_expr c0;
      with_indent ctx (fun () -> emit_stmts ctx body0);
      List.iter
        (fun (c, body) ->
          line ctx "elsif %a then" Expr.add_expr c;
          with_indent ctx (fun () -> emit_stmts ctx body))
        rest;
      if els <> [] then begin
        line ctx "else";
        with_indent ctx (fun () -> emit_stmts ctx els)
      end;
      line ctx "end if;"
    end
  | While (c, body) ->
    line ctx "while %a do" Expr.add_expr c;
    with_indent ctx (fun () -> emit_stmts ctx body);
    line ctx "end while;"
  | For (i, lo, hi, body) ->
    line ctx "for %s := %a to %a do" i Expr.add_expr lo Expr.add_expr hi;
    with_indent ctx (fun () -> emit_stmts ctx body);
    line ctx "end for;"
  | Wait_until c -> line ctx "wait until %a;" Expr.add_expr c
  | Call (p, args) -> line ctx "call %s(%a);" p add_args args
  | Emit (tag, e) -> line ctx "emit %S %a;" tag Expr.add_expr e
  | Skip -> line ctx "skip;"

let string_of_target = function Goto b -> b | Complete -> "complete"

let add_transitions buf ts =
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf ", ";
      match t.t_cond with
      | None -> Buffer.add_string buf (string_of_target t.t_target)
      | Some c ->
        Printf.bprintf buf "(%a) %s" Expr.add_expr c
          (string_of_target t.t_target))
    ts

let rec emit_behavior ctx b =
  let kind =
    match b.b_body with Leaf _ -> "leaf" | Seq _ -> "seq" | Par _ -> "par"
  in
  line ctx "behavior %s : %s is" b.b_name kind;
  with_indent ctx (fun () -> List.iter (emit_var ctx) b.b_vars);
  line ctx "begin";
  with_indent ctx (fun () ->
      match b.b_body with
      | Leaf stmts -> emit_stmts ctx stmts
      | Par bs ->
        List.iter
          (fun child ->
            emit_behavior ctx child;
            line ctx ";")
          bs
      | Seq arms ->
        List.iter
          (fun a ->
            emit_behavior ctx a.a_behavior;
            match a.a_transitions with
            | [] -> line ctx ";"
            | ts -> line ctx "-> %a;" add_transitions ts)
          arms);
  line ctx "end behavior"

let emit_param prm =
  let mode = match prm.prm_mode with Mode_in -> "in" | Mode_out -> "out" in
  Printf.sprintf "%s : %s %s" prm.prm_name mode (string_of_ty prm.prm_ty)

let emit_proc ctx pr =
  line ctx "procedure %s (%s) is" pr.prc_name
    (String.concat "; " (List.map emit_param pr.prc_params));
  with_indent ctx (fun () -> List.iter (emit_var ctx) pr.prc_vars);
  line ctx "begin";
  with_indent ctx (fun () -> emit_stmts ctx pr.prc_body);
  line ctx "end procedure;"

let emit_program ctx p =
  line ctx "program %s is" p.p_name;
  with_indent ctx (fun () ->
      List.iter (emit_var ctx) p.p_vars;
      List.iter (emit_signal ctx) p.p_signals;
      if p.p_servers <> [] then
        line ctx "servers %s;" (String.concat ", " p.p_servers);
      List.iter (emit_proc ctx) p.p_procs;
      emit_behavior ctx p.p_top);
  line ctx "end program"

let run f =
  let ctx = { buf = Buffer.create 1024; indent = 0 } in
  f ctx;
  Buffer.contents ctx.buf

let program_to_string p = run (fun ctx -> emit_program ctx p)
let stmts_to_string stmts = run (fun ctx -> emit_stmts ctx stmts)

(* One pass: a line counts once it holds a byte [String.trim] would
   keep. *)
let count_lines text =
  let count = ref 0 and blank = ref true in
  String.iter
    (function
      | '\n' ->
        if not !blank then incr count;
        blank := true
      | ' ' | '\t' | '\r' | '\012' -> ()
      | _ -> blank := false)
    text;
  if not !blank then incr count;
  !count

let line_count p = count_lines (program_to_string p)
