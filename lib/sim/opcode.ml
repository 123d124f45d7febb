(** The flat instruction set of the bytecode simulation backend.

    A compiled program ({!prog}) is an array of instructions over {e
    dense operands}: frame variable cells and arrays resolved to their
    physical storage at compile time, signals to their {!Sigtable}
    interned ids, expression temporaries to indices into a small
    per-activation register file.  Control flow is jump-patched —
    if/while/for lower to conditional branches with explicit targets.
    An if/while/wait condition that is statically boolean (see
    {!Compile}) lowers to jumping code instead: [Icmp_br] instructions
    that compare their operands in place and branch, writing no
    register.

    Step accounting is carried by the instructions themselves: every
    instruction that completes one tree-walker step ({!Interp}) is a
    {e charging} instruction, so the VM's step counts — an observable
    compared bit-for-bit by the differential tests — match the
    tree-walker without a per-dispatch tick.  The charge map mirrors
    {!Interp}'s task stack exactly: one step per simple statement, per
    taken if-branch (or else entry), per loop check, per block exit,
    per call entry and frame pop; a failed wait check charges nothing.

    Error operands ([Ifail_run], [Ifail_eval], prebuilt message
    strings) keep the tree-walker's lazy failure discipline: a name
    that does not resolve compiles to an instruction that raises {e
    when executed}, never at compile time, so a program that only
    fails on a path it never takes keeps not failing. *)

open Spec
open Spec.Ast

(** A wait site: one [wait until] occurrence in a compiled body, with
    its sensitivity classification precomputed.  The event-driven
    scheduler parks a leaf blocked here under [ws_ids]' wait-sets (or
    polls it when [ws_polled]); the classification follows how
    evaluation resolves each name: a frame cell — or nothing — forces
    polling, a pure signal condition parks. *)
type wait_site = {
  ws_expr : expr;  (** the source condition, for diagnostics and park keying *)
  ws_frame : Env.frame;  (** the frame the condition evaluates under *)
  ws_ids : int list;  (** interned ids of the signals the condition reads *)
  ws_polled : bool;  (** reads frame cells, arrays or unbound names *)
  ws_resume : int;  (** pc of the condition's first instruction *)
  mutable ws_reg_uid : int;
      (** uid of the scheduler slot that classified and
          wait-set-registered this site ([-1] when none yet): a repeat
          park from the same slot is then a bare state flip, while a
          revived machine under a fresh slot re-registers *)
}

(** An operand of a compare-and-branch, resolved at compile time. *)
type operand =
  | Ocell of value ref * string  (** a frame variable's cell, and its name *)
  | Osig of int * string  (** an interned signal id, and its name *)
  | Oconst of value

type for_site = {
  fs_cur : int;  (** register holding the current index value *)
  fs_hi : int;  (** register holding the upper bound *)
  fs_cell : value ref option;  (** the index variable's cell; [None] raises *)
  fs_err : string;  (** prebuilt unbound-index message *)
  mutable fs_exit : int;  (** jump target once the bound check fails *)
}

type prog = {
  pr_code : instr array;
  pr_nregs : int;  (** register-file size the code assumes *)
  pr_owner : string;
      (** the executing leaf — error prefixes, which stay the leaf's name
          even inside procedure bodies *)
}

(** A compiled call site.  The callee is resolved statically (the
    procedure list is fixed per program); a call to an unknown
    procedure or with wrong arity compiles to [Ifail_run] instead, at
    the exact point the tree-walker would raise.  The frame and compiled
    body of an eligible site's first call are kept as its pool and
    re-entered by mutating parameter cells, so descendants' baked
    resolutions stay valid; the tree-walker builds a fresh frame for
    every call, so the differential tests check the pool against plain
    call semantics. *)
and call_site = {
  vs_name : string;
  vs_proc : proc_decl;
  vs_frame : Env.frame;  (** the caller frame *)
  vs_owner : string;  (** the executing leaf, for error messages *)
  vs_bindings : binding array;  (** parameter plumbing, declaration order *)
  vs_pool_ok : bool;  (** parameter names distinct and shadow-free *)
  mutable vs_pool : vpool_state;
}

and binding =
  | Bin of string * int  (** in-parameter: name, register holding the value *)
  | Bout of string * value ref  (** out-parameter: name, caller cell aliased *)

and vpool_state = VPnone | VPineligible | VPpool of vpool

and vpool = {
  vp_frame : Env.frame;
  vp_prog : prog;  (** callee body compiled against [vp_frame] *)
  vp_regs : value array;
  vp_in_cells : (int * value ref) array;  (** (arg register, param cell) *)
}

and instr =
  (* -- expression instructions: uncharged ---------------------------- *)
  | Iconst of int * value  (** [r <- v] *)
  | Iload_cell of int * value ref * string  (** [r <- !cell] *)
  | Iload_sig of int * int * string  (** [r <- signal id] *)
  | Iload_arr of int * value array * int * string
      (** [rd <- arr.(ri)]; non-integer index and bounds errors exactly
          as the leaf interpreter's [lookup_idx] *)
  | Iload_arr_cond of int * value array * int * string
      (** TOC-condition indexing: out-of-bounds raises the condition
          evaluator's ["array access _ failed"] instead *)
  | Ibinop of binop * int * int * int  (** [rd <- ra op rb] *)
  | Ibinop_rc of binop * int * int * value  (** [rd <- ra op v] *)
  | Ibinop_cr of binop * int * value * int  (** [rd <- v op ra] *)
  | Ibinop_cell of binop * int * value ref * value * string
      (** [rd <- !cell op v]: operand-fused variable-against-constant
          compare/arithmetic — the bulk of wait conditions and counter
          updates *)
  | Ibinop_sig of binop * int * int * value * string
      (** [rd <- signal op v] *)
  | Iunop of unop * int * int
  | Iand_jmp of int * int  (** short-circuit: [r] false jumps, keeps false *)
  | Ior_jmp of int * int  (** short-circuit: [r] true jumps, keeps true *)
  | Ijmp of int
  | Icmp_br of binop * operand * operand * bool * int
      (** jumping conditions: [Icmp_br (op, a, b, sense, t)] jumps to [t]
          when [a op b] is [sense] and falls through otherwise.  [op] is
          a comparison; an ordering compare of a non-integer raises
          {!Spec.Expr.apply_binop}'s error *)
  | Icheck_int_run of int * string  (** [ce_int]: Run_error unless VInt *)
  | Icheck_int_eval of int  (** [as_int]: Eval_error unless VInt *)
  | Ifail_run of string  (** raise Run_error when executed *)
  | Ifail_eval of string  (** raise Eval_error when executed *)
  | Iyield of int  (** condition programs: return [r] *)
  (* -- charging instructions: each completes one interpreter step ---- *)
  | Icharge  (** bare step: skip, loop/wait entry, constant-true wait check *)
  | Iend_jmp of int  (** block exit: charge, then jump *)
  | Istore_cell of value ref * int * string
  | Istore_cell_const of value ref * value * string
  | Istore_arr of value array * int * int * string  (** arr, ri, rv, name *)
  | Istore_sig of int * int * string  (** signal id, rv, name *)
  | Istore_sig_const of int * value * string
  | Iemit of string * int
  | Iemit_const of string * value
  | Iif_jmp of int * int * string
      (** if-chain branch: non-boolean [r] raises the prebuilt message;
          true charges and jumps to the branch body; false falls through
          uncharged (the whole dispatch is one step) *)
  | Iwhile_jmp of int * int * string
      (** loop check: always charges; false exits to the target *)
  | Ifor_test of for_site
      (** loop check: always charges; past the bound exits, otherwise
          stores the index value into its cell *)
  | Ifor_end of int * int  (** body block exit: charge, bump r, jump *)
  | Iwait of int * wait_site * string
      (** non-boolean [r] raises; true charges and falls through; false
          blocks at the site, uncharged *)
  | Iwait_sig of int * wait_site * string  (** fused [wait until s] *)
  | Iwait_sig_eq of int * value * wait_site  (** fused [wait until s = k] *)
  | Iwait_never of wait_site
      (** always blocks, uncharged: a constant-false condition, or the
          false exit of a jumping wait condition *)
  | Icall of call_site  (** push the callee activation; charges *)
  | Iret  (** pop the activation; charges *)
  | Ihalt  (** leaf body finished; uncharged *)

(* ------------------------------------------------------------------ *)
(* Disassembly, for the golden tests and debugging.                    *)
(* ------------------------------------------------------------------ *)

let value_to_string = function
  | VBool true -> "true"
  | VBool false -> "false"
  | VInt n -> string_of_int n

let operand_to_string = function
  | Ocell (_, x) -> x
  | Osig (id, x) -> Printf.sprintf "%s#%d" x id
  | Oconst v -> value_to_string v

let instr_to_string = function
  | Iconst (d, v) -> Printf.sprintf "const      r%d <- %s" d (value_to_string v)
  | Iload_cell (d, _, x) -> Printf.sprintf "load_cell  r%d <- %s" d x
  | Iload_sig (d, id, x) -> Printf.sprintf "load_sig   r%d <- %s#%d" d x id
  | Iload_arr (d, _, i, x) -> Printf.sprintf "load_arr   r%d <- %s[r%d]" d x i
  | Iload_arr_cond (d, _, i, x) ->
    Printf.sprintf "load_arrc  r%d <- %s[r%d]" d x i
  | Ibinop (op, d, a, b) ->
    Printf.sprintf "binop      r%d <- r%d %s r%d" d a
      (Expr.binop_symbol op) b
  | Ibinop_rc (op, d, a, v) ->
    Printf.sprintf "binop      r%d <- r%d %s %s" d a (Expr.binop_symbol op)
      (value_to_string v)
  | Ibinop_cr (op, d, v, a) ->
    Printf.sprintf "binop      r%d <- %s %s r%d" d (value_to_string v)
      (Expr.binop_symbol op) a
  | Ibinop_cell (op, d, _, v, x) ->
    Printf.sprintf "binop      r%d <- %s %s %s" d x (Expr.binop_symbol op)
      (value_to_string v)
  | Ibinop_sig (op, d, id, v, x) ->
    Printf.sprintf "binop      r%d <- %s#%d %s %s" d x id
      (Expr.binop_symbol op) (value_to_string v)
  | Iunop (Neg, d, a) -> Printf.sprintf "unop       r%d <- -r%d" d a
  | Iunop (Not, d, a) -> Printf.sprintf "unop       r%d <- not r%d" d a
  | Iand_jmp (r, t) -> Printf.sprintf "and_jmp    r%d false -> %d" r t
  | Ior_jmp (r, t) -> Printf.sprintf "or_jmp     r%d true -> %d" r t
  | Ijmp t -> Printf.sprintf "jmp        %d" t
  | Icmp_br (op, a, b, sense, t) ->
    Printf.sprintf "%s %s %s %s -> %d"
      (if sense then "br_if     " else "br_ifnot  ")
      (operand_to_string a) (Expr.binop_symbol op) (operand_to_string b) t
  | Icheck_int_run (r, _) -> Printf.sprintf "check_int  r%d" r
  | Icheck_int_eval r -> Printf.sprintf "as_int     r%d" r
  | Ifail_run msg -> Printf.sprintf "fail_run   %S" msg
  | Ifail_eval msg -> Printf.sprintf "fail_eval  %S" msg
  | Iyield r -> Printf.sprintf "yield      r%d" r
  | Icharge -> "charge"
  | Iend_jmp t -> Printf.sprintf "end_jmp    %d" t
  | Istore_cell (_, r, x) -> Printf.sprintf "store      %s <- r%d" x r
  | Istore_cell_const (_, v, x) ->
    Printf.sprintf "store      %s <- %s" x (value_to_string v)
  | Istore_arr (_, i, v, x) -> Printf.sprintf "store_arr  %s[r%d] <- r%d" x i v
  | Istore_sig (id, r, x) -> Printf.sprintf "store_sig  %s#%d <- r%d" x id r
  | Istore_sig_const (id, v, x) ->
    Printf.sprintf "store_sig  %s#%d <- %s" x id (value_to_string v)
  | Iemit (tag, r) -> Printf.sprintf "emit       %S r%d" tag r
  | Iemit_const (tag, v) ->
    Printf.sprintf "emit       %S %s" tag (value_to_string v)
  | Iif_jmp (r, t, _) -> Printf.sprintf "if_jmp     r%d -> %d" r t
  | Iwhile_jmp (r, t, _) -> Printf.sprintf "while_jmp  r%d exit %d" r t
  | Ifor_test fs ->
    Printf.sprintf "for_test   r%d <= r%d exit %d" fs.fs_cur fs.fs_hi
      fs.fs_exit
  | Ifor_end (r, t) -> Printf.sprintf "for_end    r%d++ -> %d" r t
  | Iwait (r, _, _) -> Printf.sprintf "wait       r%d" r
  | Iwait_sig (id, ws, _) ->
    Printf.sprintf "wait_sig   %s#%d"
      (match ws.ws_expr with Ref x -> x | _ -> "?")
      id
  | Iwait_sig_eq (id, v, _) ->
    Printf.sprintf "wait_sig   #%d = %s" id (value_to_string v)
  | Iwait_never _ -> "wait_never"
  | Icall site -> Printf.sprintf "call       %s/%d" site.vs_name
      (Array.length site.vs_bindings)
  | Iret -> "ret"
  | Ihalt -> "halt"

let charges = function
  | Iconst _ | Iload_cell _ | Iload_sig _ | Iload_arr _ | Iload_arr_cond _
  | Ibinop _ | Ibinop_rc _ | Ibinop_cr _ | Ibinop_cell _ | Ibinop_sig _
  | Iunop _ | Iand_jmp _ | Ior_jmp _ | Ijmp _ | Icmp_br _ | Icheck_int_run _
  | Icheck_int_eval _ | Ifail_run _ | Ifail_eval _ | Iyield _ | Iwait_never _
  | Ihalt ->
    false
  | Icharge | Iend_jmp _ | Istore_cell _ | Istore_cell_const _ | Istore_arr _
  | Istore_sig _ | Istore_sig_const _ | Iemit _ | Iemit_const _ | Iif_jmp _
  | Iwhile_jmp _ | Ifor_test _ | Ifor_end _ | Iwait _ | Iwait_sig _
  | Iwait_sig_eq _ | Icall _ | Iret ->
    true

let to_string prog =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i instr ->
      Buffer.add_string b
        (Printf.sprintf "%3d  %s%s\n" i (instr_to_string instr)
           (if charges instr then "  *" else "")))
    prog.pr_code;
  Buffer.contents b
