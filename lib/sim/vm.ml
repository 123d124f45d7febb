(** The register machine executing {!Opcode} programs: the leaf machine
    of the event-driven {!Engine}.  The polling {!Reference} runs the
    same bodies on the tree-walking {!Interp}, and the differential
    tests hold the two bit-identical.

    One {!thread} per leaf process: a stack of activations (the leaf
    body plus any live procedure calls), each holding its compiled
    program, its register file and its frame.  Registers carry boxed
    {!Spec.Ast.value}s and persist across suspensions, so a thread
    blocked at a wait (or out of fuel) resumes mid-construct with loop
    counters and bounds intact.

    The dispatch loop keeps the code array, register file and pc in
    locals and charges steps only at the instructions the tree-walker
    counts as steps ({!Opcode.charges}), so [run ~fuel] returns
    bit-identical (status, steps) to {!Interp.run} on the same body.
    All effects go through the same shared machinery — {!Sigtable} for
    reads, schedules and commits, {!Trace} for events, {!Env} frames for
    variables — so hooks, fault pokes, and ordering policies observe the
    VM and the tree-walker identically.

    Compilation is lazy (first run) because it needs the signal table
    and procedure list from the run context; the compiled root program
    survives {!reset} — a session rewind reuses frames and cells in
    place, which is exactly the invariant the baked operands rely on. *)

open Spec
open Spec.Ast
open Opcode

(* [Blocked] carries no payload: the site is published through
   [th_blocked], so a park costs one box (the [Some]) rather than two. *)
type status = Progress | Blocked | Finished

type activation = {
  act_prog : prog;
  act_regs : value array;
  mutable act_pc : int;
  act_frame : Env.frame;
}

type thread = {
  th_owner : string;
  th_body : stmt list;  (** source, compiled at first run *)
  th_base_frame : Env.frame;
  mutable th_root : activation option;
  mutable th_cur : activation option;
  mutable th_callers : activation list;  (** innermost caller first *)
  mutable th_halted : bool;
  mutable th_gen : int;  (** bumped by {!reset} *)
  mutable th_blocked : wait_site option;  (** site of the last block *)
  mutable th_steps : int;
      (** steps consumed by the last {!run} — returned out-of-band so an
          activation completes without allocating a result tuple *)
}

let make ~owner ~frame stmts =
  {
    th_owner = owner;
    th_body = stmts;
    th_base_frame = frame;
    th_root = None;
    th_cur = None;
    th_callers = [];
    th_halted = false;
    th_gen = 0;
    th_blocked = None;
    th_steps = 0;
  }

(** Rewind to the top of the compiled body.  The compiled program and
    its baked operands survive (the frames are being reused in place)
    and the generation bumps.  Calls the rewind abandons need no
    clean-up: the next call through their sites re-enters the pooled
    frames (see {!enter_call}). *)
let reset t =
  begin match t.th_root with
  | Some act ->
    act.act_pc <- 0;
    t.th_cur <- t.th_root
  | None -> ()
  end;
  t.th_callers <- [];
  t.th_halted <- false;
  t.th_blocked <- None;
  t.th_gen <- t.th_gen + 1

let owner t = t.th_owner
let gen t = t.th_gen
let halted t = t.th_halted
let blocked_site t = t.th_blocked

(* A suspended thread's resumable state, for engine checkpoints: each
   live activation's pc and registers, innermost first, and the halt and
   block flags.  Frames are not part of it: the leaf's own frame belongs
   to its tree node, and {!call_frames} lists the procedure frames. *)
type saved_act = { sa_act : activation; sa_pc : int; sa_regs : value array }

type saved = {
  sv_thread : thread;
  sv_stack : saved_act list;  (** current activation first, then callers *)
  sv_halted : bool;
  sv_blocked : wait_site option;
}

let save t =
  let one act =
    { sa_act = act; sa_pc = act.act_pc; sa_regs = Array.copy act.act_regs }
  in
  {
    sv_thread = t;
    sv_stack =
      (match t.th_cur with
      | None -> []
      | Some act -> one act :: List.map one t.th_callers);
    sv_halted = t.th_halted;
    sv_blocked = t.th_blocked;
  }

(* The frames of the live procedure calls: every activation's frame but
   the leaf body's. *)
let call_frames t =
  match t.th_cur with
  | None -> []
  | Some act ->
    List.filter_map
      (fun a ->
        if a.act_frame == t.th_base_frame then None else Some a.act_frame)
      (act :: t.th_callers)

(** Put a thread back in its {!save}d state; a thread saved before its
    first run restarts at the top of its body, as {!reset} leaves it. *)
let restore sv =
  let t = sv.sv_thread in
  List.iter
    (fun sa ->
      let act = sa.sa_act in
      act.act_pc <- sa.sa_pc;
      Array.blit sa.sa_regs 0 act.act_regs 0 (Array.length sa.sa_regs))
    sv.sv_stack;
  begin match sv.sv_stack with
  | cur :: callers ->
    t.th_cur <- Some cur.sa_act;
    t.th_callers <- List.map (fun sa -> sa.sa_act) callers
  | [] ->
    (match t.th_root with Some act -> act.act_pc <- 0 | None -> ());
    t.th_cur <- t.th_root;
    t.th_callers <- []
  end;
  t.th_halted <- sv.sv_halted;
  t.th_blocked <- sv.sv_blocked

let run_error fmt = Printf.ksprintf (fun s -> raise (Interp.Run_error s)) fmt

(* Inline the all-integer fast paths: {!Spec.Expr.apply_binop} builds
   two closures per call, and comparisons and counter arithmetic are the
   bulk of leaf work.  Anything else — type errors, division — falls
   back to the shared applier for bit-identical results and messages. *)
let[@inline] apply_fast op va vb =
  match (op, va, vb) with
  | Ast.Add, Ast.VInt x, Ast.VInt y -> Expr.vint (x + y)
  | Sub, VInt x, VInt y -> Expr.vint (x - y)
  | Mul, VInt x, VInt y -> Expr.vint (x * y)
  | Lt, VInt x, VInt y -> Expr.vbool (x < y)
  | Le, VInt x, VInt y -> Expr.vbool (x <= y)
  | Gt, VInt x, VInt y -> Expr.vbool (x > y)
  | Ge, VInt x, VInt y -> Expr.vbool (x >= y)
  | Eq, _, _ -> Expr.vbool (equal_value va vb)
  | Neq, _, _ -> Expr.vbool (not (equal_value va vb))
  | _ -> Expr.apply_binop op va vb

(* A compare-and-branch's operands and test.  The test returns the
   boolean itself rather than [apply_fast]'s boxed value; an ordering
   compare of a non-integer raises through the shared applier, as on the
   value path. *)
let[@inline] operand sigs = function
  | Ocell (cell, _) -> !cell
  | Osig (id, _) -> Sigtable.read_id sigs id
  | Oconst v -> v

let[@inline] test op va vb =
  match (op, va, vb) with
  | Ast.Eq, _, _ -> equal_value va vb
  | Neq, _, _ -> not (equal_value va vb)
  | Lt, VInt x, VInt y -> x < y
  | Le, VInt x, VInt y -> x <= y
  | Gt, VInt x, VInt y -> x > y
  | Ge, VInt x, VInt y -> x >= y
  | _ -> Expr.apply_binop op va vb == Expr.vbool true

let fresh_regs prog = Array.make (max prog.pr_nregs 1) (Expr.vbool false)

let ensure_cur cx t =
  match t.th_cur with
  | Some act -> act
  | None ->
    let prog =
      Compile.body ~owner:t.th_owner ~frame:t.th_base_frame
        ~signals:cx.Interp.cx_signals ~procs:cx.Interp.cx_procs
        ~epilogue:`Halt t.th_body
    in
    let act =
      {
        act_prog = prog;
        act_regs = fresh_regs prog;
        act_pc = 0;
        act_frame = t.th_base_frame;
      }
    in
    t.th_root <- Some act;
    t.th_cur <- Some act;
    act

(* Enter a call site: re-enter the site's pooled frame, else build a
   fresh frame (and, at an eligible site's first call, keep it as the
   pool).  In-arguments were evaluated into registers by the preceding
   instructions; out-parameters were resolved at compile time.

   A pooled frame never serves two live calls.  The site belongs to one
   compiled program, and a program has at most one live activation: the
   root program's is the thread's body, a fresh frame's program is its
   own, and a pooled program's is entered only from its site, whose own
   program's single activation is suspended at the call until it
   returns.  So a rewind that abandons calls leaves nothing to release. *)
let enter_call cx site (regs : value array) =
  let pr = site.vs_proc in
  match site.vs_pool with
  | VPpool p ->
    Array.iter (fun (r, cell) -> cell := regs.(r)) p.vp_in_cells;
    Env.reinitialize p.vp_frame pr.prc_vars;
    {
      act_prog = p.vp_prog;
      act_regs = p.vp_regs;
      act_pc = 0;
      act_frame = p.vp_frame;
    }
  | VPnone | VPineligible ->
    let frame =
      Env.make ~parent:site.vs_frame ~owner:site.vs_name pr.prc_vars
    in
    let in_cells = ref [] in
    Array.iter
      (function
        | Bin (name, r) ->
          let cell = ref regs.(r) in
          Env.bind frame name cell;
          in_cells := (r, cell) :: !in_cells
        | Bout (name, cell) -> Env.bind frame name cell)
      site.vs_bindings;
    let prog =
      Compile.body ~owner:site.vs_owner ~frame
        ~signals:cx.Interp.cx_signals ~procs:cx.Interp.cx_procs
        ~epilogue:`Ret pr.prc_body
    in
    let regs = fresh_regs prog in
    if site.vs_pool == VPnone then
      site.vs_pool <-
        (if site.vs_pool_ok then
           VPpool
             {
               vp_frame = frame;
               vp_prog = prog;
               vp_regs = regs;
               vp_in_cells = Array.of_list (List.rev !in_cells);
             }
         else VPineligible);
    { act_prog = prog; act_regs = regs; act_pc = 0; act_frame = frame }

(* The dispatch loop.  [exec]/[charge]/[block] are top-level (not nested
   in [run]) so an activation costs no closure-group allocation; all the
   shared state travels as explicit arguments, which the native compiler
   keeps in registers across the known-function self-calls. *)
let rec exec cx sigs t fuel act (code : instr array) (regs : value array)
    pc steps =
  match Array.unsafe_get code pc with
      | Iconst (d, v) ->
        Array.unsafe_set regs d v;
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Iload_cell (d, cell, _) ->
        Array.unsafe_set regs d !cell;
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Iload_sig (d, id, _) ->
        Array.unsafe_set regs d (Sigtable.read_id sigs id);
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Iload_arr (d, arr, ri, name) ->
        let i = Expr.as_int regs.(ri) in
        if i < 0 || i >= Array.length arr then
          run_error "%s: index %d out of bounds for %s (size %d)"
            act.act_prog.pr_owner i name (Array.length arr)
        else begin
          Array.unsafe_set regs d arr.(i);
          exec cx sigs t fuel act code regs (pc + 1) steps
        end
      | Iload_arr_cond (d, arr, ri, name) ->
        let i = Expr.as_int regs.(ri) in
        if i < 0 || i >= Array.length arr then
          raise
            (Expr.Eval_error (Printf.sprintf "array access %s failed" name))
        else begin
          Array.unsafe_set regs d arr.(i);
          exec cx sigs t fuel act code regs (pc + 1) steps
        end
      | Ibinop (op, d, a, b) ->
        Array.unsafe_set regs d (apply_fast op regs.(a) regs.(b));
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Ibinop_rc (op, d, a, v) ->
        Array.unsafe_set regs d (apply_fast op regs.(a) v);
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Ibinop_cr (op, d, v, a) ->
        Array.unsafe_set regs d (apply_fast op v regs.(a));
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Ibinop_cell (op, d, cell, v, _) ->
        Array.unsafe_set regs d (apply_fast op !cell v);
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Ibinop_sig (op, d, id, v, _) ->
        Array.unsafe_set regs d (apply_fast op (Sigtable.read_id sigs id) v);
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Iunop (op, d, a) ->
        Array.unsafe_set regs d (Expr.apply_unop op regs.(a));
        exec cx sigs t fuel act code regs (pc + 1) steps
      | Iand_jmp (r, target) ->
        begin match regs.(r) with
        | VBool false -> exec cx sigs t fuel act code regs target steps
        | VBool true -> exec cx sigs t fuel act code regs (pc + 1) steps
        | VInt _ -> raise (Expr.Eval_error "expected a boolean value")
        end
      | Ior_jmp (r, target) ->
        begin match regs.(r) with
        | VBool true -> exec cx sigs t fuel act code regs target steps
        | VBool false -> exec cx sigs t fuel act code regs (pc + 1) steps
        | VInt _ -> raise (Expr.Eval_error "expected a boolean value")
        end
      | Ijmp target -> exec cx sigs t fuel act code regs target steps
      | Icmp_br (op, a, b, sense, target) ->
        if test op (operand sigs a) (operand sigs b) = sense then
          exec cx sigs t fuel act code regs target steps
        else exec cx sigs t fuel act code regs (pc + 1) steps
      | Icheck_int_run (r, msg) ->
        begin match regs.(r) with
        | VInt _ -> exec cx sigs t fuel act code regs (pc + 1) steps
        | VBool _ -> raise (Interp.Run_error msg)
        end
      | Icheck_int_eval r ->
        begin match regs.(r) with
        | VInt _ -> exec cx sigs t fuel act code regs (pc + 1) steps
        | VBool _ -> raise (Expr.Eval_error "expected an integer value")
        end
      | Ifail_run msg -> raise (Interp.Run_error msg)
      | Ifail_eval msg -> raise (Expr.Eval_error msg)
      | Iyield _ -> assert false (* condition programs only *)
      | Icharge -> charge cx sigs t fuel act code regs (pc + 1) steps
      | Iend_jmp target -> charge cx sigs t fuel act code regs target steps
      | Istore_cell (cell, r, _) ->
        cell := regs.(r);
        charge cx sigs t fuel act code regs (pc + 1) steps
      | Istore_cell_const (cell, v, _) ->
        cell := v;
        charge cx sigs t fuel act code regs (pc + 1) steps
      | Istore_arr (arr, ri, rv, name) ->
        let i = Expr.as_int regs.(ri) in
        if i < 0 || i >= Array.length arr then
          run_error "%s: index %d out of bounds for %s (size %d)"
            act.act_prog.pr_owner i name (Array.length arr)
        else begin
          arr.(i) <- regs.(rv);
          charge cx sigs t fuel act code regs (pc + 1) steps
        end
      | Istore_sig (id, r, _) ->
        Sigtable.schedule_id sigs id regs.(r);
        charge cx sigs t fuel act code regs (pc + 1) steps
      | Istore_sig_const (id, v, _) ->
        Sigtable.schedule_id sigs id v;
        charge cx sigs t fuel act code regs (pc + 1) steps
      | Iemit (tag, r) ->
        Trace.record cx.Interp.cx_trace ~delta:cx.Interp.cx_delta ~tag
          ~value:regs.(r);
        charge cx sigs t fuel act code regs (pc + 1) steps
      | Iemit_const (tag, v) ->
        Trace.record cx.Interp.cx_trace ~delta:cx.Interp.cx_delta ~tag
          ~value:v;
        charge cx sigs t fuel act code regs (pc + 1) steps
      | Iif_jmp (r, target, msg) ->
        begin match regs.(r) with
        | VBool true -> charge cx sigs t fuel act code regs target steps
        | VBool false -> exec cx sigs t fuel act code regs (pc + 1) steps
        | VInt _ -> raise (Interp.Run_error msg)
        end
      | Iwhile_jmp (r, exit_, msg) ->
        begin match regs.(r) with
        | VBool true -> charge cx sigs t fuel act code regs (pc + 1) steps
        | VBool false -> charge cx sigs t fuel act code regs exit_ steps
        | VInt _ -> raise (Interp.Run_error msg)
        end
      | Ifor_test fs ->
        let cur = Expr.as_int regs.(fs.fs_cur) in
        if cur > Expr.as_int regs.(fs.fs_hi) then
          charge cx sigs t fuel act code regs fs.fs_exit steps
        else begin
          match fs.fs_cell with
          | Some cell ->
            cell := Expr.vint cur;
            charge cx sigs t fuel act code regs (pc + 1) steps
          | None -> raise (Interp.Run_error fs.fs_err)
        end
      | Ifor_end (r, head) ->
        regs.(r) <- Expr.vint (Expr.as_int regs.(r) + 1);
        charge cx sigs t fuel act code regs head steps
      | Iwait (r, site, msg) ->
        begin match regs.(r) with
        | VBool true -> charge cx sigs t fuel act code regs (pc + 1) steps
        | VBool false -> block t act site steps
        | VInt _ -> raise (Interp.Run_error msg)
        end
      | Iwait_sig (id, site, msg) ->
        begin match Sigtable.read_id sigs id with
        | VBool true -> charge cx sigs t fuel act code regs (pc + 1) steps
        | VBool false -> block t act site steps
        | VInt _ -> raise (Interp.Run_error msg)
        end
      | Iwait_sig_eq (id, v, site) ->
        (* Pointer test first: compiled constants are interned into the
           {!Spec.Expr} caches, so the committed box and the compiled box
           coincide for bools and small ints. *)
        let v' = Sigtable.read_id sigs id in
        if v' == v || equal_value v' v then
          charge cx sigs t fuel act code regs (pc + 1) steps
        else block t act site steps
      | Iwait_never site -> block t act site steps
      | Icall site ->
        act.act_pc <- pc + 1;
        let callee = enter_call cx site regs in
        t.th_callers <- act :: t.th_callers;
        t.th_cur <- Some callee;
        charge cx sigs t fuel callee callee.act_prog.pr_code callee.act_regs 0 steps
      | Iret ->
        begin match t.th_callers with
        | caller :: rest ->
          t.th_callers <- rest;
          t.th_cur <- Some caller;
          charge cx sigs t fuel caller caller.act_prog.pr_code
            caller.act_regs caller.act_pc steps
        | [] -> run_error "%s: frame underflow" t.th_owner
        end
      | Ihalt ->
        t.th_halted <- true;
        t.th_steps <- steps;
        Finished

and charge cx sigs t fuel act code regs pc steps =
      let steps = steps + 1 in
      if steps >= fuel then begin
        act.act_pc <- pc;
        (* The tree-walker's finished state (empty task stack) becomes
           true the moment the last step completes, even when the fuel
           boundary makes [run] report [Progress] — and the structural
           advance observes it.  The VM equivalent: the body is complete
           exactly when the resume point is [Ihalt]. *)
        begin match Array.unsafe_get code pc with
        | Ihalt -> t.th_halted <- true
        | _ -> ()
        end;
        t.th_steps <- steps;
        Progress
      end
      else exec cx sigs t fuel act code regs pc steps

and block t act site steps =
  act.act_pc <- site.ws_resume;
  t.th_blocked <- Some site;
  t.th_steps <- steps;
  Blocked

(** Run until the thread blocks, finishes, or exhausts [fuel] steps.
    Returns the status; the step count lands in {!th_steps} so the
    scheduler's inner loop stays allocation-free (the [Blocked] box is
    the one exception, and it doubles as the park request).  The
    (status, th_steps) pair is bit-identical to {!Interp.run} on the
    same body. *)
let run cx t ~fuel =
  if fuel <= 0 then begin
    t.th_steps <- 0;
    Progress
  end
  else if t.th_halted then begin
    t.th_steps <- 0;
    Finished
  end
  else begin
    let act0 = ensure_cur cx t in
    t.th_blocked <- None;
    let sigs = cx.Interp.cx_signals in
    exec cx sigs t fuel act0 act0.act_prog.pr_code act0.act_regs act0.act_pc 0
  end

(* ------------------------------------------------------------------ *)
(* Compiled TOC / transition conditions.                               *)
(* ------------------------------------------------------------------ *)

(** A compiled condition with its (reused) register file.  Sessions are
    domain-local and single-threaded, so reusing the registers across
    evaluations is safe and keeps re-evaluation allocation-free. *)
type cond_prog = { cp_prog : prog; cp_regs : value array }

let compile_cond ~frame ~signals e =
  let p = Compile.cond ~frame ~signals e in
  { cp_prog = p; cp_regs = fresh_regs p }

let eval_cond cx cp =
  let sigs = cx.Interp.cx_signals in
  let code = cp.cp_prog.pr_code in
  let regs = cp.cp_regs in
  let rec go pc =
    match Array.unsafe_get code pc with
    | Iconst (d, v) ->
      regs.(d) <- v;
      go (pc + 1)
    | Iload_cell (d, cell, _) ->
      regs.(d) <- !cell;
      go (pc + 1)
    | Iload_sig (d, id, _) ->
      regs.(d) <- Sigtable.read_id sigs id;
      go (pc + 1)
    | Iload_arr_cond (d, arr, ri, name) ->
      let i = Expr.as_int regs.(ri) in
      if i < 0 || i >= Array.length arr then
        raise
          (Expr.Eval_error (Printf.sprintf "array access %s failed" name))
      else begin
        regs.(d) <- arr.(i);
        go (pc + 1)
      end
    | Ibinop (op, d, a, b) ->
      regs.(d) <- apply_fast op regs.(a) regs.(b);
      go (pc + 1)
    | Ibinop_rc (op, d, a, v) ->
      regs.(d) <- apply_fast op regs.(a) v;
      go (pc + 1)
    | Ibinop_cr (op, d, v, a) ->
      regs.(d) <- apply_fast op v regs.(a);
      go (pc + 1)
    | Ibinop_cell (op, d, cell, v, _) ->
      regs.(d) <- apply_fast op !cell v;
      go (pc + 1)
    | Ibinop_sig (op, d, id, v, _) ->
      regs.(d) <- apply_fast op (Sigtable.read_id sigs id) v;
      go (pc + 1)
    | Iunop (op, d, a) ->
      regs.(d) <- Expr.apply_unop op regs.(a);
      go (pc + 1)
    | Iand_jmp (r, target) ->
      begin match regs.(r) with
      | VBool false -> go target
      | VBool true -> go (pc + 1)
      | VInt _ -> raise (Expr.Eval_error "expected a boolean value")
      end
    | Ior_jmp (r, target) ->
      begin match regs.(r) with
      | VBool true -> go target
      | VBool false -> go (pc + 1)
      | VInt _ -> raise (Expr.Eval_error "expected a boolean value")
      end
    | Ijmp target -> go target
    | Icheck_int_eval r ->
      begin match regs.(r) with
      | VInt _ -> go (pc + 1)
      | VBool _ -> raise (Expr.Eval_error "expected an integer value")
      end
    | Ifail_eval msg -> raise (Expr.Eval_error msg)
    | Iyield r -> regs.(r)
    | _ -> assert false (* leaf-only instructions never appear *)
  in
  go 0
