(** Lowering elaborated bodies and conditions to {!Opcode} programs.

    Compilation runs against a {e fixed} physical frame, so every name
    is resolved here, once: variables to their [value ref] cells, arrays
    to their storage, signals to {!Sigtable} ids, procedures to their
    declarations.  Constant subexpressions fold at compile time through
    the very {!Spec.Expr.apply_binop} the VM dispatches through, so a
    folded result (or a folded failure) is bit-identical to the
    evaluated one.

    Names that do not resolve lower to [Ifail_*] instructions placed
    exactly where the tree-walker would have raised, preserving its lazy
    failure discipline: position in the evaluation order decides which
    of several possible errors fires, and code on a never-taken path
    never fails.

    Two modes differ only at array reads: leaf bodies raise the
    interpreter's owner-prefixed [Run_error]s on missing arrays and
    out-of-bounds indices, while TOC/wait conditions evaluated by
    {!Runtime.eval_cond} raise [Eval_error "array access _ failed"]. *)

open Spec
open Spec.Ast
open Opcode

type mode = Mleaf | Mcond

type env = {
  md : mode;
  owner : string;  (** the leaf behavior, for error prefixes *)
  frame : Env.frame;
  signals : Sigtable.t;
  procs : proc_decl list;
}

(* ------------------------------------------------------------------ *)
(* Code buffer with jump patching.                                     *)
(* ------------------------------------------------------------------ *)

type buf = {
  mutable b_code : instr array;
  mutable b_len : int;
  mutable b_regs : int;  (** register high-water mark *)
}

let max_reg = function
  | Iconst (d, _) | Iload_cell (d, _, _) | Iload_sig (d, _, _) -> d
  | Iload_arr (d, _, i, _) | Iload_arr_cond (d, _, i, _) -> max d i
  | Ibinop (_, d, a, b) -> max d (max a b)
  | Ibinop_rc (_, d, a, _) | Ibinop_cr (_, d, _, a) | Iunop (_, d, a) ->
    max d a
  | Ibinop_cell (_, d, _, _, _) | Ibinop_sig (_, d, _, _, _) -> d
  | Iand_jmp (r, _)
  | Ior_jmp (r, _)
  | Icheck_int_run (r, _)
  | Icheck_int_eval r
  | Iyield r
  | Istore_cell (_, r, _)
  | Istore_sig (_, r, _)
  | Iemit (_, r)
  | Iif_jmp (r, _, _)
  | Iwhile_jmp (r, _, _)
  | Iwait (r, _, _)
  | Ifor_end (r, _) ->
    r
  | Istore_arr (_, i, v, _) -> max i v
  | Ifor_test fs -> max fs.fs_cur fs.fs_hi
  | Icall site ->
    Array.fold_left
      (fun acc -> function Bin (_, r) -> max acc r | Bout _ -> acc)
      (-1) site.vs_bindings
  | Ijmp _ | Icmp_br _ | Ifail_run _ | Ifail_eval _ | Icharge | Iend_jmp _
  | Istore_cell_const _ | Istore_sig_const _ | Iemit_const _ | Iwait_sig _
  | Iwait_sig_eq _ | Iwait_never _ | Iret | Ihalt ->
    -1

let new_buf () = { b_code = Array.make 16 Ihalt; b_len = 0; b_regs = 0 }

let emit b i =
  if b.b_len = Array.length b.b_code then begin
    let code = Array.make (2 * b.b_len) Ihalt in
    Array.blit b.b_code 0 code 0 b.b_len;
    b.b_code <- code
  end;
  b.b_code.(b.b_len) <- i;
  b.b_len <- b.b_len + 1;
  let r = max_reg i in
  if r >= b.b_regs then b.b_regs <- r + 1

let here b = b.b_len

(* Emit a placeholder to patch once the jump target is known. *)
let reserve b =
  emit b (Ijmp (-1));
  b.b_len - 1

let patch b at i =
  b.b_code.(at) <- i;
  let r = max_reg i in
  if r >= b.b_regs then b.b_regs <- r + 1

let finish b ~owner =
  { pr_code = Array.sub b.b_code 0 b.b_len; pr_nregs = b.b_regs;
    pr_owner = owner }

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

(** Result of lowering one expression: a compile-time constant (no code
    emitted), code leaving the value in the target register, or code
    guaranteed to raise before producing a value. *)
type folded = Fv of value | Fcode | Fraise

let msg_not_bool_cond env c =
  Printf.sprintf "%s: condition %s is not boolean" env.owner
    (Expr.to_string c)

let msg_not_int env e =
  Printf.sprintf "%s: expression %s is not an integer" env.owner
    (Expr.to_string e)

(* Constants embedded in instructions go through the {!Spec.Expr} value
   caches: every bool and small int the compiled code mentions is then
   the {e same physical box} as the one runtime arithmetic produces, so
   the pointer test in {!Spec.Ast.equal_value} (wait-site compares,
   commit change detection) resolves without inspecting the payload. *)
let intern (v : value) =
  match v with
  | VBool b -> Expr.vbool b
  | VInt n -> if n >= 0 && n < 1024 then Expr.vint n else v

(* [emit_expr b env ~dst ~sp e] leaves [e]'s value in register [dst],
   using registers [>= sp] as scratch.  [dst < sp] always. *)
let rec emit_expr b env ~dst ~sp e : folded =
  match e with
  | Const v -> Fv (intern v)
  | Ref x ->
    begin match Env.find_cell env.frame x with
    | Some cell ->
      emit b (Iload_cell (dst, cell, x));
      Fcode
    | None ->
      begin match Sigtable.id_of env.signals x with
      | Some id ->
        emit b (Iload_sig (dst, id, x));
        Fcode
      | None ->
        emit b (Ifail_eval (Printf.sprintf "unbound reference %s" x));
        Fraise
      end
    end
  | Index (x, i) ->
    (* The index evaluates first, then coerces, then the array is
       consulted — so an index error beats a missing array, as in
       {!Spec.Expr.eval}. *)
    begin match emit_expr b env ~dst ~sp i with
    | Fraise -> Fraise
    | Fv (VBool _) ->
      emit b (Ifail_eval "expected an integer value");
      Fraise
    | (Fv (VInt _) | Fcode) as fi ->
      begin match fi with
      | Fv v -> emit b (Iconst (dst, v))
      | _ -> emit b (Icheck_int_eval dst)
      end;
      begin match (Env.find_array env.frame x, env.md) with
      | Some arr, Mleaf ->
        emit b (Iload_arr (dst, arr, dst, x));
        Fcode
      | Some arr, Mcond ->
        emit b (Iload_arr_cond (dst, arr, dst, x));
        Fcode
      | None, Mleaf ->
        emit b
          (Ifail_run (Printf.sprintf "%s: %s is not an array" env.owner x));
        Fraise
      | None, Mcond ->
        emit b
          (Ifail_eval (Printf.sprintf "array access %s failed" x));
        Fraise
      end
    end
  | Binop (And, l, r) ->
    (* Short-circuit: left first, and the right operand's value is NOT
       bool-checked (exactly {!Expr.eval}: [true and 3] is [3]). *)
    begin match emit_expr b env ~dst ~sp l with
    | Fraise -> Fraise
    | Fv (VBool false) -> Fv (Expr.vbool false)
    | Fv (VBool true) -> emit_expr b env ~dst ~sp r
    | Fv (VInt _) ->
      emit b (Ifail_eval "expected a boolean value");
      Fraise
    | Fcode ->
      let p = reserve b in
      begin match emit_expr b env ~dst ~sp r with
      | Fv v -> emit b (Iconst (dst, v))
      | Fcode | Fraise -> ()
      end;
      patch b p (Iand_jmp (dst, here b));
      Fcode
    end
  | Binop (Or, l, r) ->
    begin match emit_expr b env ~dst ~sp l with
    | Fraise -> Fraise
    | Fv (VBool true) -> Fv (Expr.vbool true)
    | Fv (VBool false) -> emit_expr b env ~dst ~sp r
    | Fv (VInt _) ->
      emit b (Ifail_eval "expected a boolean value");
      Fraise
    | Fcode ->
      let p = reserve b in
      begin match emit_expr b env ~dst ~sp r with
      | Fv v -> emit b (Iconst (dst, v))
      | Fcode | Fraise -> ()
      end;
      patch b p (Ior_jmp (dst, here b));
      Fcode
    end
  | Binop (op, Ref x, Const v)
    when (match Env.find_cell env.frame x with
         | Some _ -> true
         | None -> Sigtable.id_of env.signals x <> None) ->
    (* Operand-fused variable-against-constant form: the constant right
       operand emits no code, so the load + const + binop triple
       collapses to one instruction with identical evaluation order and
       failure behavior (the applier is shared). *)
    begin match Env.find_cell env.frame x with
    | Some cell -> emit b (Ibinop_cell (op, dst, cell, intern v, x))
    | None ->
      let id = Option.get (Sigtable.id_of env.signals x) in
      emit b (Ibinop_sig (op, dst, id, intern v, x))
    end;
    Fcode
  | Binop (op, l, Const vr) when (match l with Const _ -> false | _ -> true) ->
    (* Constant right operand: fold it into the binop instruction. *)
    begin match emit_expr b env ~dst ~sp l with
    | Fraise -> Fraise
    | Fv vl ->
      begin match Expr.apply_binop op vl vr with
      | v -> Fv v
      | exception Expr.Eval_error m ->
        emit b (Ifail_eval m);
        Fraise
      end
    | Fcode ->
      emit b (Ibinop_rc (op, dst, dst, intern vr));
      Fcode
    end
  | Binop (op, Const vl, r) ->
    (* Constant left operand: the right operand's code still comes
       first ({!Spec.Expr.apply_binop}'s application order), then the
       constant folds into the instruction. *)
    begin match emit_expr b env ~dst ~sp r with
    | Fraise -> Fraise
    | Fv vr ->
      begin match Expr.apply_binop op vl vr with
      | v -> Fv v
      | exception Expr.Eval_error m ->
        emit b (Ifail_eval m);
        Fraise
      end
    | Fcode ->
      emit b (Ibinop_cr (op, dst, intern vl, dst));
      Fcode
    end
  | Binop (op, l, r) ->
    (* The evaluators apply [apply_binop op (gl ()) (gr ())] — OCaml
       function application evaluates the RIGHT operand first, so the
       right operand's code (and its errors) come first here too. *)
    begin match emit_expr b env ~dst:sp ~sp:(sp + 1) r with
    | Fraise -> Fraise
    | fr ->
      begin match emit_expr b env ~dst ~sp:(sp + 1) l with
      | Fraise -> Fraise
      | Fv vl when (match fr with Fv _ -> true | _ -> false) ->
        let vr = match fr with Fv v -> v | _ -> assert false in
        begin match Expr.apply_binop op vl vr with
        | v -> Fv v
        | exception Expr.Eval_error m ->
          emit b (Ifail_eval m);
          Fraise
        end
      | fl ->
        begin match fr with
        | Fv v -> emit b (Iconst (sp, v))
        | _ -> ()
        end;
        begin match fl with
        | Fv v -> emit b (Iconst (dst, v))
        | _ -> ()
        end;
        emit b (Ibinop (op, dst, dst, sp));
        Fcode
      end
    end
  | Unop (op, a) ->
    begin match emit_expr b env ~dst ~sp a with
    | Fraise -> Fraise
    | Fv v ->
      begin match Expr.apply_unop op v with
      | v -> Fv v
      | exception Expr.Eval_error m ->
        emit b (Ifail_eval m);
        Fraise
      end
    | Fcode ->
      emit b (Iunop (op, dst, dst));
      Fcode
    end

(* ------------------------------------------------------------------ *)
(* Jumping conditions.                                                 *)
(* ------------------------------------------------------------------ *)

(* A condition is statically boolean when it is [and]/[or]/[not] over
   boolean constants and comparisons of atoms: cells and signals that
   resolve here, and constants.  Its value is then always a boolean, its
   one possible failure is an ordering compare of a non-integer, which
   the branch raises with {!Spec.Expr.apply_binop}'s message, and name
   reads cannot fail or have effects, so jumping code evaluates it
   exactly as the tree-walker does.  A statically boolean condition that
   reads no name is a constant, which the value path folds. *)
let atom env = function
  | Const v -> Some (Oconst (intern v))
  | Ref x ->
    begin match Env.find_cell env.frame x with
    | Some cell -> Some (Ocell (cell, x))
    | None ->
      Option.map (fun id -> Osig (id, x)) (Sigtable.id_of env.signals x)
    end
  | _ -> None

let rec static_bool env = function
  | Const (VBool _) -> true
  | Unop (Not, a) -> static_bool env a
  | Binop ((And | Or), l, r) -> static_bool env l && static_bool env r
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge), l, r) ->
    Option.is_some (atom env l) && Option.is_some (atom env r)
  | _ -> false

let jumps env c = static_bool env c && Expr.refs c <> []

(* Point the jumps at [jumps] (branches, or [reserve]d placeholders) at
   [target]. *)
let retarget b jumps target =
  List.iter
    (fun at ->
      patch b at
        (match b.b_code.(at) with
        | Icmp_br (op, l, r, sense, _) -> Icmp_br (op, l, r, sense, target)
        | _ -> Ijmp target))
    jumps

(* [emit_branch b env ~sense c] lowers a statically boolean [c] to code
   that jumps when [c] is [sense] and falls through otherwise; it returns
   the jumps' pcs, to [retarget] once the target is known.  The
   operands of [and]/[or] keep their short-circuit order: a left operand
   that decides the result skips the right one. *)
let rec emit_branch b env ~sense c =
  match c with
  | Const (VBool v) -> if v = sense then [ reserve b ] else []
  | Unop (Not, a) -> emit_branch b env ~sense:(not sense) a
  | Binop (((And | Or) as op), (Const (VBool v) as l), r) ->
    if v = (op = Or) then emit_branch b env ~sense l
    else emit_branch b env ~sense r
  | Binop (((And | Or) as op), l, r) ->
    let decider = op = Or in
    if sense = decider then
      let jl = emit_branch b env ~sense l in
      jl @ emit_branch b env ~sense r
    else begin
      let skip = emit_branch b env ~sense:decider l in
      let jr = emit_branch b env ~sense r in
      retarget b skip (here b);
      jr
    end
  | Binop (op, l, r) ->
    let operand e = Option.get (atom env e) in
    emit b (Icmp_br (op, operand l, operand r, sense, -1));
    [ here b - 1 ]
  | _ -> invalid_arg "Compile.emit_branch: not statically boolean"

(* ------------------------------------------------------------------ *)
(* Wait sites.                                                         *)
(* ------------------------------------------------------------------ *)

(* Sensitivity classification for the event-driven scheduler's park,
   once per wait site: each referenced name is resolved the way
   evaluation resolves it — a frame cell (or an unbound name, or an
   array base) can change without a commit and forces polling; pure
   signal reads park under the signals' wait-sets. *)
let make_site env c ~resume =
  let polled = ref false in
  let ids =
    List.filter_map
      (fun x ->
        match Env.find_cell env.frame x with
        | Some _ ->
          polled := true;
          None
        | None ->
          begin match Sigtable.id_of env.signals x with
          | Some id -> Some id
          | None ->
            polled := true;
            None
          end)
      (Expr.refs c)
  in
  {
    ws_expr = c;
    ws_frame = env.frame;
    ws_ids = ids;
    ws_polled = !polled;
    ws_resume = resume;
    ws_reg_uid = -1;
  }

(* A name that reads as a signal and nothing else — eligible for the
   fused wait forms. *)
let pure_signal env x =
  match Env.find_cell env.frame x with
  | Some _ -> None
  | None -> Sigtable.id_of env.signals x

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)
(* ------------------------------------------------------------------ *)

(* A pooled frame is rebound purely by mutating cell contents (see
   {!Vm.enter_call}), which is only sound when no parameter name collides
   with another parameter or with a local: otherwise re-initializing the
   locals would overwrite a parameter's cell, which may alias the
   caller's variable. *)
let pool_eligible pr =
  let locals = List.map (fun (d : var_decl) -> d.v_name) pr.prc_vars in
  let rec distinct seen = function
    | [] -> true
    | prm :: rest ->
      (not (List.mem prm.prm_name seen))
      && (not (List.mem prm.prm_name locals))
      && distinct (prm.prm_name :: seen) rest
  in
  distinct [] pr.prc_params

(* Force an expression into [dst], materializing folded constants.
   Returns false when the code is guaranteed to raise first. *)
let force b env ~dst ~sp e =
  match emit_expr b env ~dst ~sp e with
  | Fv v ->
    emit b (Iconst (dst, v));
    true
  | Fcode -> true
  | Fraise -> false

(* One step of the tree-walker = one charging instruction; see the
   charge map in {!Opcode}.  [sp] is the first free register —
   statements inside a [for] body must not clobber the loop's bound and
   counter registers, so it is threaded structurally. *)
let rec emit_stmt b env ~sp s =
  match s with
  | Skip -> emit b Icharge
  | Assign (x, e) ->
    begin match Env.find_cell env.frame x with
    | Some cell ->
      begin match emit_expr b env ~dst:sp ~sp:(sp + 1) e with
      | Fv v -> emit b (Istore_cell_const (cell, v, x))
      | Fcode -> emit b (Istore_cell (cell, sp, x))
      | Fraise -> ()
      end
    | None ->
      (* The value evaluates before the target resolves (and fails). *)
      begin match emit_expr b env ~dst:sp ~sp:(sp + 1) e with
      | Fv _ | Fcode ->
        emit b
          (Ifail_run
             (Printf.sprintf "%s: assignment to unbound variable %s"
                env.owner x))
      | Fraise -> ()
      end
    end
  | Assign_idx (x, i, e) ->
    (* Evaluation order: index (int-coerced), value, target array,
       bounds. *)
    begin match emit_expr b env ~dst:sp ~sp:(sp + 1) i with
    | Fraise -> ()
    | Fv (VBool _) -> emit b (Ifail_run (msg_not_int env i))
    | (Fv (VInt _) | Fcode) as fi ->
      begin match fi with
      | Fv v -> emit b (Iconst (sp, v))
      | _ -> emit b (Icheck_int_run (sp, msg_not_int env i))
      end;
      if force b env ~dst:(sp + 1) ~sp:(sp + 2) e then begin
        match Env.find_array env.frame x with
        | Some arr -> emit b (Istore_arr (arr, sp, sp + 1, x))
        | None ->
          emit b
            (Ifail_run
               (Printf.sprintf "%s: %s is not an array" env.owner x))
      end
    end
  | Signal_assign (sg, e) ->
    begin match emit_expr b env ~dst:sp ~sp:(sp + 1) e with
    | Fraise -> ()
    | fe ->
      begin match Sigtable.id_of env.signals sg with
      | Some id ->
        begin match fe with
        | Fv v -> emit b (Istore_sig_const (id, v, sg))
        | _ -> emit b (Istore_sig (id, sp, sg))
        end
      | None ->
        emit b
          (Ifail_run
             (Printf.sprintf "%s: signal assignment to non-signal %s"
                env.owner sg))
      end
    end
  | Emit (tag, e) ->
    begin match emit_expr b env ~dst:sp ~sp:(sp + 1) e with
    | Fv v -> emit b (Iemit_const (tag, v))
    | Fcode -> emit b (Iemit (tag, sp))
    | Fraise -> ()
    end
  | If (branches, els) ->
    (* Trunk: conditions evaluate in order; a statically-true condition
       commits to its branch, a statically-false one disappears, a
       statically-ill-typed (or raising) one ends the chain.  Dynamic
       branch bodies are placed after the trunk; the whole dispatch
       charges exactly once — at the taken [Iif_jmp], at the [Icharge]
       heading a body that jumping code enters, or at the else entry's
       [Icharge]. *)
    let ends = ref [] in
    let deferred = ref [] in
    let rec trunk = function
      | [] ->
        emit b Icharge;
        emit_stmts b env ~sp els;
        ends := reserve b :: !ends
      | (c, body) :: rest when jumps env c ->
        begin match emit_branch b env ~sense:true c with
        | [] -> ()  (* never true: the body is dead *)
        | js -> deferred := (`Jumps js, body) :: !deferred
        end;
        trunk rest
      | (c, body) :: rest ->
        begin match emit_expr b env ~dst:sp ~sp:(sp + 1) c with
        | Fv (VBool true) ->
          emit b Icharge;
          emit_stmts b env ~sp body;
          ends := reserve b :: !ends
        | Fv (VBool false) -> trunk rest
        | Fv (VInt _) -> emit b (Ifail_run (msg_not_bool_cond env c))
        | Fraise -> ()
        | Fcode ->
          let p = reserve b in
          deferred := (`Value (p, msg_not_bool_cond env c), body) :: !deferred;
          trunk rest
        end
    in
    trunk branches;
    List.iter
      (fun (entry, body) ->
        begin match entry with
        | `Value (p, msg) -> patch b p (Iif_jmp (sp, here b, msg))
        | `Jumps js ->
          retarget b js (here b);
          emit b Icharge
        end;
        emit_stmts b env ~sp body;
        ends := reserve b :: !ends)
      (List.rev !deferred);
    let lend = here b in
    List.iter (fun p -> patch b p (Iend_jmp lend)) !ends
  | While (c, body) when jumps env c ->
    (* The loop check's step: at body entry, or at the exit. *)
    emit b Icharge;
    let head = here b in
    let exits = emit_branch b env ~sense:false c in
    emit b Icharge;
    emit_stmts b env ~sp body;
    emit b (Iend_jmp head);
    retarget b exits (here b);
    emit b Icharge
  | While (c, body) ->
    emit b Icharge;
    let head = here b in
    begin match emit_expr b env ~dst:sp ~sp:(sp + 1) c with
    | Fv (VBool true) ->
      emit b Icharge;
      emit_stmts b env ~sp body;
      emit b (Iend_jmp head)
    | Fv (VBool false) -> emit b Icharge
    | Fv (VInt _) -> emit b (Ifail_run (msg_not_bool_cond env c))
    | Fraise -> ()
    | Fcode ->
      let p = reserve b in
      emit_stmts b env ~sp body;
      emit b (Iend_jmp head);
      patch b p (Iwhile_jmp (sp, here b, msg_not_bool_cond env c))
    end
  | For (ix, lo, hi, body) ->
    (* Bounds evaluate left to right, each int-coerced as it goes; the
       loop keeps them in two registers the body must not touch. *)
    let emit_bound ~dst ~scratch e =
      match emit_expr b env ~dst ~sp:scratch e with
      | Fraise -> false
      | Fv (VBool _) ->
        emit b (Ifail_run (msg_not_int env e));
        false
      | Fv v ->
        emit b (Iconst (dst, v));
        true
      | Fcode ->
        emit b (Icheck_int_run (dst, msg_not_int env e));
        true
    in
    if emit_bound ~dst:sp ~scratch:(sp + 1) lo then
      if emit_bound ~dst:(sp + 1) ~scratch:(sp + 2) hi then begin
        emit b Icharge;
        let fs =
          {
            fs_cur = sp;
            fs_hi = sp + 1;
            fs_cell = Env.find_cell env.frame ix;
            fs_err =
              Printf.sprintf "%s: for index %s is not a variable" env.owner
                ix;
            fs_exit = -1;
          }
        in
        let head = here b in
        emit b (Ifor_test fs);
        emit_stmts b env ~sp:(sp + 2) body;
        emit b (Ifor_end (sp, head));
        fs.fs_exit <- here b
      end
  | Wait_until c ->
    emit b Icharge;
    let resume = here b in
    let fused =
      match c with
      | Ref x ->
        begin match pure_signal env x with
        | Some id ->
          let site = make_site env c ~resume in
          emit b (Iwait_sig (id, site, msg_not_bool_cond env c));
          true
        | None -> false
        end
      | Binop (Eq, Ref x, Const v) | Binop (Eq, Const v, Ref x) ->
        begin match pure_signal env x with
        | Some id ->
          let site = make_site env c ~resume in
          emit b (Iwait_sig_eq (id, intern v, site));
          true
        | None -> false
        end
      | _ -> false
    in
    if (not fused) && jumps env c then begin
      (* A false condition falls through to the block, which resumes at
         the condition; a true one charges past it. *)
      let js = emit_branch b env ~sense:true c in
      emit b (Iwait_never (make_site env c ~resume));
      retarget b js (here b);
      emit b Icharge
    end
    else if not fused then begin
      match emit_expr b env ~dst:sp ~sp:(sp + 1) c with
      | Fv (VBool true) -> emit b Icharge
      | Fv (VBool false) -> emit b (Iwait_never (make_site env c ~resume))
      | Fv (VInt _) -> emit b (Ifail_run (msg_not_bool_cond env c))
      | Fraise -> ()
      | Fcode ->
        emit b (Iwait (sp, make_site env c ~resume, msg_not_bool_cond env c))
    end
  | Call (name, args) ->
    begin match
      List.find_opt (fun pr -> String.equal pr.prc_name name) env.procs
    with
    | None ->
      emit b (Ifail_run (Printf.sprintf "call to unknown procedure %s" name))
    | Some pr when List.length pr.prc_params <> List.length args ->
      emit b
        (Ifail_run
           (Printf.sprintf "%s: call to %s with wrong arity" env.owner name))
    | Some pr ->
      (* Parameters process in declaration order, argument evaluation
         interleaved with out-parameter resolution, so a failure fires
         at exactly the parameter position it would in the
         tree-walker. *)
      let closed = ref false in
      let bindings = ref [] in
      let k = ref 0 in
      List.iter2
        (fun prm arg ->
          if not !closed then begin
            let r = sp + !k in
            incr k;
            match (prm.prm_mode, arg) with
            | Mode_in, Arg_expr e ->
              if force b env ~dst:r ~sp:(r + 1) e then
                bindings := Bin (prm.prm_name, r) :: !bindings
              else closed := true
            | Mode_in, Arg_var x ->
              begin match Env.find_cell env.frame x with
              | Some cell ->
                emit b (Iload_cell (r, cell, x));
                bindings := Bin (prm.prm_name, r) :: !bindings
              | None ->
                begin match Sigtable.id_of env.signals x with
                | Some id ->
                  emit b (Iload_sig (r, id, x));
                  bindings := Bin (prm.prm_name, r) :: !bindings
                | None ->
                  emit b
                    (Ifail_run
                       (Printf.sprintf "%s: unbound argument %s" env.owner
                          x));
                  closed := true
                end
              end
            | Mode_out, Arg_var x ->
              begin match Env.find_cell env.frame x with
              | Some cell -> bindings := Bout (prm.prm_name, cell) :: !bindings
              | None ->
                emit b
                  (Ifail_run
                     (Printf.sprintf "%s: out argument %s is not a variable"
                        env.owner x));
                closed := true
              end
            | Mode_out, Arg_expr _ ->
              emit b
                (Ifail_run
                   (Printf.sprintf
                      "%s: expression passed to out parameter %s of %s"
                      env.owner prm.prm_name name));
              closed := true
          end)
        pr.prc_params args;
      if not !closed then
        emit b
          (Icall
             {
               vs_name = name;
               vs_proc = pr;
               vs_frame = env.frame;
               vs_owner = env.owner;
               vs_bindings = Array.of_list (List.rev !bindings);
               vs_pool_ok = pool_eligible pr;
               vs_pool = VPnone;
             })
    end

and emit_stmts b env ~sp stmts = List.iter (emit_stmt b env ~sp) stmts

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let body ~owner ~frame ~signals ~procs ~epilogue stmts =
  let b = new_buf () in
  let env = { md = Mleaf; owner; frame; signals; procs } in
  emit_stmts b env ~sp:0 stmts;
  (* The body block's own pop is a step; then the machine either halts
     (leaf) or pops its activation (procedure). *)
  emit b Icharge;
  (match epilogue with `Halt -> emit b Ihalt | `Ret -> emit b Iret);
  finish b ~owner

let cond ~frame ~signals e =
  let b = new_buf () in
  let env = { md = Mcond; owner = ""; frame; signals; procs = [] } in
  begin match emit_expr b env ~dst:0 ~sp:1 e with
  | Fv v -> emit b (Iconst (0, v))
  | Fcode | Fraise -> ()
  end;
  emit b (Iyield 0);
  finish b ~owner:""
