(** The leaf-statement interpreter: an explicit task-stack machine so a
    process can suspend at any [wait until] and resume later.  Variable
    assignments take effect immediately; signal assignments are scheduled
    on the {!Sigtable} and take effect at the next delta cycle.

    This is the reference semantics the bytecode VM is checked against,
    so it walks the source statements directly: every name is resolved
    when it is read (frame chain first, then the signal table), every
    expression goes through {!Expr.eval}, and every procedure call builds
    a fresh frame. *)

open Spec
open Spec.Ast

exception Run_error of string

let run_error fmt = Printf.ksprintf (fun s -> raise (Run_error s)) fmt

type task =
  | Tstmts of stmt list
  | Twhile of expr * stmt list
  | Tfor of string * int * int * stmt list
      (** index variable, next value, upper bound, body *)
  | Twait of expr
  | Tpop_frame  (** return from a procedure: back to the caller's frame *)

type exec = {
  mutable stack : task list;
  mutable frame : Env.frame;
  ex_owner : string;  (** behavior name, for diagnostics *)
  ex_body : stmt list;  (** the body, for {!reset_exec} *)
  ex_base : Env.frame;  (** the instantiation frame *)
}

and context = {
  cx_signals : Sigtable.t;
  cx_trace : Trace.t;
  cx_procs : proc_decl list;
  mutable cx_delta : int;  (** current delta cycle, stamped onto events *)
}

let make_exec ~owner ~frame body =
  {
    stack = [ Tstmts body ];
    frame;
    ex_owner = owner;
    ex_body = body;
    ex_base = frame;
  }

let reset_exec exec =
  exec.stack <- [ Tstmts exec.ex_body ];
  exec.frame <- exec.ex_base

let lookup cx exec name =
  match Env.find_cell exec.frame name with
  | Some cell -> Some !cell
  | None -> Sigtable.read cx.cx_signals name

let array exec name =
  match Env.find_array exec.frame name with
  | Some arr -> arr
  | None -> run_error "%s: %s is not an array" exec.ex_owner name

let check_bounds exec name arr i =
  if i < 0 || i >= Array.length arr then
    run_error "%s: index %d out of bounds for %s (size %d)" exec.ex_owner i
      name (Array.length arr)

let eval cx exec e =
  let lookup_idx name i =
    let arr = array exec name in
    check_bounds exec name arr i;
    Some arr.(i)
  in
  Expr.eval ~lookup_idx ~lookup:(lookup cx exec) e

let eval_bool cx exec e =
  match eval cx exec e with
  | VBool b -> b
  | VInt _ ->
    run_error "%s: condition %s is not boolean" exec.ex_owner
      (Expr.to_string e)

let eval_int cx exec e =
  match eval cx exec e with
  | VInt n -> n
  | VBool _ ->
    run_error "%s: expression %s is not an integer" exec.ex_owner
      (Expr.to_string e)

(* Enter a procedure: a fresh frame under the caller's, in-parameters
   bound to fresh cells holding the evaluated arguments, out-parameters
   aliasing the caller's cell.  Arguments are processed left to right in
   the caller's frame, so the first failing one raises. *)
let call cx exec name args stack =
  let pr =
    match
      List.find_opt (fun pr -> String.equal pr.prc_name name) cx.cx_procs
    with
    | Some pr -> pr
    | None -> run_error "call to unknown procedure %s" name
  in
  if List.length pr.prc_params <> List.length args then
    run_error "%s: call to %s with wrong arity" exec.ex_owner name;
  let caller = exec.frame in
  let frame = Env.make ~parent:caller ~owner:name pr.prc_vars in
  List.iter2
    (fun prm arg ->
      let cell =
        match (prm.prm_mode, arg) with
        | Mode_in, Arg_expr e -> ref (eval cx exec e)
        | Mode_in, Arg_var x ->
          begin match lookup cx exec x with
          | Some v -> ref v
          | None -> run_error "%s: unbound argument %s" exec.ex_owner x
          end
        | Mode_out, Arg_var x ->
          begin match Env.find_cell caller x with
          | Some cell -> cell
          | None ->
            run_error "%s: out argument %s is not a variable" exec.ex_owner x
          end
        | Mode_out, Arg_expr _ ->
          run_error "%s: expression passed to out parameter %s of %s"
            exec.ex_owner prm.prm_name name
      in
      Env.bind frame prm.prm_name cell)
    pr.prc_params args;
  exec.frame <- frame;
  Tstmts pr.prc_body :: Tpop_frame :: stack

(* Execute one statement (already popped off the stack); returns the new
   stack. *)
let exec_stmt cx exec s stack =
  match s with
  | Skip -> stack
  | Assign (x, e) ->
    let v = eval cx exec e in
    begin match Env.find_cell exec.frame x with
    | Some cell -> cell := v
    | None -> run_error "%s: assignment to unbound variable %s" exec.ex_owner x
    end;
    stack
  | Assign_idx (x, i, e) ->
    let i = eval_int cx exec i in
    let v = eval cx exec e in
    let arr = array exec x in
    check_bounds exec x arr i;
    arr.(i) <- v;
    stack
  | Signal_assign (sg, e) ->
    if not (Sigtable.schedule cx.cx_signals sg (eval cx exec e)) then
      run_error "%s: signal assignment to non-signal %s" exec.ex_owner sg;
    stack
  | If (branches, els) ->
    let rec choose = function
      | [] -> Tstmts els :: stack
      | (c, body) :: rest ->
        if eval_bool cx exec c then Tstmts body :: stack else choose rest
    in
    choose branches
  | While (c, body) -> Twhile (c, body) :: stack
  | For (i, lo, hi, body) ->
    let lo = eval_int cx exec lo in
    let hi = eval_int cx exec hi in
    Tfor (i, lo, hi, body) :: stack
  | Wait_until c -> Twait c :: stack
  | Call (name, args) -> call cx exec name args stack
  | Emit (tag, e) ->
    Trace.record cx.cx_trace ~delta:cx.cx_delta ~tag ~value:(eval cx exec e);
    stack

type status =
  | Progress  (** executed at least one step and can continue *)
  | Blocked of expr  (** stopped at an unsatisfied wait *)
  | Finished

let advance exec stack =
  exec.stack <- stack;
  Progress

(* One machine step: every task popped or rewritten is one step; an
   unsatisfied wait and an empty stack consume none. *)
let step cx exec =
  match exec.stack with
  | [] -> Finished
  | Twait c :: _ when not (eval_bool cx exec c) -> Blocked c
  | (Twait _ | Tstmts []) :: rest -> advance exec rest
  | Tstmts (s :: more) :: rest ->
    advance exec (exec_stmt cx exec s (Tstmts more :: rest))
  | Twhile (c, body) :: rest as stack ->
    advance exec (if eval_bool cx exec c then Tstmts body :: stack else rest)
  | Tfor (_, cur, hi, _) :: rest when cur > hi -> advance exec rest
  | Tfor (i, cur, hi, body) :: rest ->
    begin match Env.find_cell exec.frame i with
    | Some cell ->
      cell := Expr.vint cur;
      advance exec (Tstmts body :: Tfor (i, cur + 1, hi, body) :: rest)
    | None -> run_error "%s: for index %s is not a variable" exec.ex_owner i
    end
  | Tpop_frame :: rest ->
    begin match exec.frame.Env.f_parent with
    | Some parent ->
      exec.frame <- parent;
      advance exec rest
    | None -> run_error "%s: frame underflow" exec.ex_owner
    end

let run cx exec ~fuel =
  let rec go steps =
    if steps >= fuel then (Progress, steps)
    else
      match step cx exec with
      | Progress -> go (steps + 1)
      | status -> (status, steps)
  in
  go 0
