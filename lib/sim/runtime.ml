(** The process-tree runtime shared by the simulation kernels: behavior
    instantiation, structural advancement over TOC arcs, completion and
    deadlock analysis, and final-value readout.

    Two kernels drive this machinery: the event-driven scheduler
    ({!Engine}) over bytecode-VM leaves, and the retained round-robin
    polling scheduler ({!Reference}) over tree-walking leaves, which
    exists as the differential-testing baseline.  Everything observable —
    traces, final values, deadlock reports, delta counts — is produced by
    this shared code, so the kernels can only differ in scheduling and
    leaf machine, and the differential tests check they do not. *)

open Spec
open Spec.Ast

type config = {
  max_steps : int;  (** total interpreter steps across all processes *)
  max_deltas : int;
  slice : int;  (** interpreter steps per process per scheduling round *)
  trace_signals : bool;
      (** record every committed signal change (for waveform dumps) *)
}

let default_config =
  {
    max_steps = 5_000_000;
    max_deltas = 200_000;
    slice = 10_000;
    trace_signals = false;
  }

type outcome =
  | Completed
  | Deadlock of string list  (** blocked process descriptions *)
  | Step_limit
  | Cancelled  (** the [h_poll] hook asked the kernel to stop *)

type result = {
  r_outcome : outcome;
  r_trace : Trace.event list;
  r_deltas : int;
  r_steps : int;
  r_final : (string * value) list;
      (** variable values at the end, preorder, first occurrence first *)
  r_signal_trace : (int * (string * value) list) list;
      (** with [trace_signals]: per delta cycle, the committed changes *)
}

(** Post-commit access to the live simulation state, handed to the
    [h_on_commit] hook: the signal store plus read/write access to the
    behavior-frame variables anywhere in the process tree (fault
    injection flips bits in generated memory storage through this). *)
type probe = {
  pr_delta : int;  (** the delta cycle just committed *)
  pr_signals : Sigtable.t;
  pr_read_var : string -> value option;
  pr_write_var : string -> value -> bool;
}

type hooks = {
  h_intercept : (delta:int -> string -> value -> Sigtable.action) option;
      (** sees every scheduled signal update at commit time;
          [delta] is the cycle being committed *)
  h_on_commit : (probe -> unit) option;  (** runs after every commit *)
  h_poll : (unit -> bool) option;
      (** cooperative cancellation: checked once per scheduling round;
          returning [true] stops the run with {!Cancelled} *)
  h_fault_from : int option;
      (** [Some q]: the intercept is inert on every commit of a delta
          cycle before [q] and the post-commit hook on every commit up to
          delta [q], so the run is the hook-free run until delta [q] —
          {!Engine} may resume it from a checkpoint.  [None]: live from
          delta 0. *)
  h_log : Commit_log.t option;
      (** records every scheduled update at commit time, before the
          intercept and the ordering layer see it *)
}

let no_hooks =
  {
    h_intercept = None;
    h_on_commit = None;
    h_poll = None;
    h_fault_from = None;
    h_log = None;
  }

(* The round-boundary cancellation check both kernels share. *)
let poll_cancelled hooks =
  match hooks.h_poll with None -> false | Some f -> f ()

(* The update intercept both kernels install for a run: the commit log
   records every scheduled update, the fault hook decides, then the
   ordering layer may divert what it lets through (post-rewrite) into a
   port FIFO.  Both kernels see identical capture/release sequences, so a
   (policy, seed) pair replays bit-identically on both.  Without a log,
   a fault hook or an ordering, no intercept is installed: the commit
   path is literally unchanged. *)
let install_intercept (cx : Interp.context) hooks ordering =
  let base =
    match (hooks.h_log, hooks.h_intercept) with
    | None, None -> None
    | None, Some f -> Some (fun name v -> f ~delta:cx.Interp.cx_delta name v)
    | Some log, None ->
      Some
        (fun name _ ->
          Commit_log.record log name cx.Interp.cx_delta;
          Sigtable.Pass)
    | Some log, Some f ->
      Some
        (fun name v ->
          let delta = cx.Interp.cx_delta in
          Commit_log.record log name delta;
          f ~delta name v)
  in
  match (base, ordering) with
  | None, None -> ()
  | Some f, None -> Sigtable.set_intercept cx.Interp.cx_signals (Some f)
  | base, Some mo ->
    Sigtable.set_intercept cx.Interp.cx_signals
      (Some
         (fun name v ->
           let act =
             match base with None -> Sigtable.Pass | Some f -> f name v
           in
           let capture v =
             Memord.capture mo ~delta:cx.Interp.cx_delta name v
           in
           match act with
           | Sigtable.Drop -> Sigtable.Drop
           | Sigtable.Pass ->
             if capture v then Sigtable.Drop else Sigtable.Pass
           | Sigtable.Rewrite v' ->
             if capture v' then Sigtable.Drop else Sigtable.Rewrite v'))

(** The leaf machine a process tree runs, indexed by the machine's type:
    the tree-walking interpreter ({!Interp}), which the polling
    {!Reference} drives, or the bytecode register VM ({!Vm}), which
    {!Engine} drives.  Each kernel fixes its own when it instantiates.
    Both produce bit-identical observables — traces, final values, step
    counts, error messages — which the differential tests enforce. *)
type _ leaf_kind = Tree : Interp.exec leaf_kind | Bytecode : Vm.thread leaf_kind

let make_machine : type m.
    m leaf_kind -> owner:string -> frame:Env.frame -> stmt list -> m =
 fun kind ~owner ~frame stmts ->
  match kind with
  | Tree -> Interp.make_exec ~owner ~frame stmts
  | Bytecode -> Vm.make ~owner ~frame stmts

(* Finished, as the structural advance observes it: the tree-walker's
   empty task stack, the VM's halt flag — both become true the moment
   the body's last step completes, even mid-slice. *)
let machine_finished : type m. m leaf_kind -> m -> bool =
 fun kind m ->
  match kind with Tree -> m.Interp.stack = [] | Bytecode -> Vm.halted m

let reset_machine : type m. m leaf_kind -> m -> unit =
 fun kind m ->
  match kind with Tree -> Interp.reset_exec m | Bytecode -> Vm.reset m

type 'm nstate =
  | Nleaf of 'm
  | Nseq of 'm seq_run
  | Npar of 'm node list
  | Ndone

and 'm seq_run = {
  mutable s_idx : int;
  mutable s_child : 'm node;
  s_arms : seq_arm array;  (** the composition's arms, for O(1) indexing *)
  s_pool : 'm node option array;
      (** per arm, the subtree built when the arm was last entered;
          re-entering an arm resets that subtree in place instead of
          instantiating a fresh one *)
  mutable s_conds : (expr * Vm.cond_prog) list;
      (** TOC-arc conditions compiled for the VM, keyed by physical
          expression — a composition re-evaluates the same few conditions
          at every arm completion *)
}

and 'm node = {
  nd_behavior : behavior;
  nd_frame : Env.frame;
  nd_kind : 'm leaf_kind;
  mutable nd_state : 'm nstate;
  nd_keep : 'm keep;
      (** the structure behind [nd_state], retained past completion so a
          re-entered arm can be rewound instead of rebuilt *)
}

and 'm keep =
  | Kleaf of 'm
  | Kseq of 'm seq_run
  | Kpar of 'm node list
  | Knone  (** empty composition: born done *)

let rec instantiate kind parent_frame b =
  let frame = Env.make ~parent:parent_frame ~owner:b.b_name b.b_vars in
  let state, keep =
    match b.b_body with
    | Leaf stmts ->
      let m = make_machine kind ~owner:b.b_name ~frame stmts in
      (Nleaf m, Kleaf m)
    | Seq [] -> (Ndone, Knone)
    | Seq (first :: _ as arms) ->
      let s =
        {
          s_idx = 0;
          s_child = instantiate kind frame first.a_behavior;
          s_arms = Array.of_list arms;
          s_pool = Array.make (List.length arms) None;
          s_conds = [];
        }
      in
      s.s_pool.(0) <- Some s.s_child;
      (Nseq s, Kseq s)
    | Par [] -> (Ndone, Knone)
    | Par children ->
      let nodes = List.map (instantiate kind frame) children in
      (Npar nodes, Kpar nodes)
  in
  {
    nd_behavior = b;
    nd_frame = frame;
    nd_kind = kind;
    nd_state = state;
    nd_keep = keep;
  }

(* Rewind a previously-built subtree to its freshly-instantiated state,
   in place: variables take their initializers again (cells and arrays
   are overwritten, never replaced, so memoized resolutions and the
   VM's baked operands stay valid), leaf machines restart at the top of their
   compiled bodies, sequential compositions re-enter their first arm.
   Observably identical to [instantiate] — same values, same steps —
   without rebuilding any frame, table or compiled body. *)
let rec reset_node node =
  Env.reinitialize node.nd_frame node.nd_behavior.b_vars;
  match node.nd_keep with
  | Kleaf m ->
    reset_machine node.nd_kind m;
    node.nd_state <- Nleaf m
  | Kseq s ->
    s.s_idx <- 0;
    s.s_child <- arm_child node.nd_kind s node.nd_frame 0;
    node.nd_state <- Nseq s
  | Kpar children ->
    List.iter reset_node children;
    node.nd_state <- Npar children
  | Knone -> node.nd_state <- Ndone

(* The subtree for entering arm [j]: the pooled instance rewound, or a
   fresh instantiation on first entry. *)
and arm_child kind s frame j =
  match s.s_pool.(j) with
  | Some child ->
    reset_node child;
    child
  | None ->
    let child = instantiate kind frame s.s_arms.(j).a_behavior in
    s.s_pool.(j) <- Some child;
    child

let is_done node = match node.nd_state with Ndone -> true | _ -> false

let rec collect_leaves acc node =
  match node.nd_state with
  | Ndone -> acc
  | Nleaf m -> m :: acc
  | Nseq s -> collect_leaves acc s.s_child
  | Npar children -> List.fold_left collect_leaves acc children

(** All live leaves in preorder. *)
let leaves root = List.rev (collect_leaves [] root)

let eval_cond cx frame c =
  let lookup name =
    match Env.lookup frame name with
    | Some v -> Some v
    | None -> Sigtable.read cx.Interp.cx_signals name
  in
  let lookup_idx name i =
    match Env.find_array frame name with
    | Some arr when i >= 0 && i < Array.length arr -> Some arr.(i)
    | Some _ | None -> None
  in
  match Expr.eval ~lookup_idx ~lookup c with
  | VBool b -> b
  | VInt _ ->
    raise
      (Interp.Run_error
         (Printf.sprintf "TOC condition %s is not boolean" (Expr.to_string c)))

(* A TOC-arc condition.  Under the VM it is compiled once per
   (composition, condition) site and evaluated by the VM's condition
   interpreter; operand resolution order (frame chain before signal
   table) and every error message match [eval_cond] exactly. *)
let eval_cond_seq : type m.
    Interp.context -> m node -> m seq_run -> expr -> bool =
 fun cx node s c ->
  match node.nd_kind with
  | Tree -> eval_cond cx node.nd_frame c
  | Bytecode ->
    let cp =
      match List.assq_opt c s.s_conds with
      | Some cp -> cp
      | None ->
        let cp =
          Vm.compile_cond ~frame:node.nd_frame
            ~signals:cx.Interp.cx_signals c
        in
        s.s_conds <- (c, cp) :: s.s_conds;
        cp
    in
    begin match Vm.eval_cond cx cp with
    | VBool b -> b
    | VInt _ ->
      raise
        (Interp.Run_error
           (Printf.sprintf "TOC condition %s is not boolean"
              (Expr.to_string c)))
    end

(* Advance structural state after leaves have run: leaves with an empty
   stack become done; a sequential composition whose child completed takes
   its TOC arc; a parallel composition completes with all children.
   Returns true when anything changed. *)
let rec advance cx node =
  match node.nd_state with
  | Ndone -> false
  | Nleaf m ->
    if machine_finished node.nd_kind m then begin
      node.nd_state <- Ndone;
      true
    end
    else false
  | Npar children ->
    let changed =
      List.fold_left (fun acc c -> advance cx c || acc) false children
    in
    if List.for_all is_done children then begin
      node.nd_state <- Ndone;
      true
    end
    else changed
  | Nseq s ->
    let changed = advance cx s.s_child in
    if not (is_done s.s_child) then changed
    else begin
      let arms = s.s_arms in
      let arm = arms.(s.s_idx) in
      let fired =
        let rec first_true = function
          | [] -> None
          | t :: rest ->
            begin match t.t_cond with
            | None -> Some t.t_target
            | Some c ->
              if eval_cond_seq cx node s c then Some t.t_target
              else first_true rest
            end
        in
        match arm.a_transitions with
        | [] ->
          (* fall through to the next arm in the list *)
          if s.s_idx + 1 < Array.length arms then
            Some (Goto arms.(s.s_idx + 1).a_behavior.b_name)
          else Some Complete
        | ts ->
          (* no arc firing completes the composition *)
          begin match first_true ts with
          | Some target -> Some target
          | None -> Some Complete
          end
      in
      begin match fired with
      | Some Complete | None -> node.nd_state <- Ndone
      | Some (Goto name) ->
        let j =
          let found = ref (-1) in
          Array.iteri
            (fun i a ->
              if !found < 0 && String.equal a.a_behavior.b_name name then
                found := i)
            arms;
          if !found < 0 then
            raise
              (Interp.Run_error
                 (Printf.sprintf "behavior %s: transition to unknown arm %s"
                    node.nd_behavior.b_name name));
          !found
        in
        s.s_idx <- j;
        s.s_child <- arm_child node.nd_kind s node.nd_frame j
      end;
      true
    end

let rec advance_fixpoint cx node =
  if advance cx node then begin
    ignore (advance_fixpoint cx node);
    true
  end
  else false

(* A node is effectively done when it finished, is a registered server, or
   is a parallel composition of effectively done children (a component
   whose only remaining activity is its perpetual servers counts as
   finished). *)
let rec effectively_done servers node =
  match node.nd_state with
  | Ndone -> true
  | _ when List.mem node.nd_behavior.b_name servers -> true
  | Nleaf _ | Nseq _ -> false
  | Npar children -> List.for_all (effectively_done servers) children

(* What a blocked wait is stuck on, with current values: the signals the
   condition reads, and also the frame variables it reads (a wait on a
   variable that no other process ever writes is a deadlock too, and the
   report must name it) — fault-campaign deadlocks are diagnosed from
   these. *)
let waited_signals cx frame c =
  List.filter_map
    (fun x ->
      match Env.lookup frame x with
      | Some v -> Some (Format.asprintf "%s=%a" x Expr.pp_value v)
      | None ->
        begin match Sigtable.read cx.Interp.cx_signals x with
        | Some v -> Some (Format.asprintf "%s=%a" x Expr.pp_value v)
        | None -> None
        end)
    (Expr.refs c)

let describe_wait cx owner frame c acc =
  let sigs = waited_signals cx frame c in
  Printf.sprintf "%s waiting until %s%s" owner (Expr.to_string c)
    (match sigs with
    | [] -> ""
    | _ -> Printf.sprintf " [%s]" (String.concat ", " sigs))
  :: acc

let rec blocked_descriptions : type m.
    Interp.context -> string list -> m node -> string list =
 fun cx acc node ->
  match (node.nd_kind, node.nd_state) with
  | _, Ndone -> acc
  | Tree, Nleaf exec ->
    begin match exec.Interp.stack with
    | Interp.Twait c :: _ ->
      describe_wait cx exec.Interp.ex_owner exec.Interp.frame c acc
    | _ -> Printf.sprintf "%s runnable" exec.Interp.ex_owner :: acc
    end
  | Bytecode, Nleaf t ->
    begin match Vm.blocked_site t with
    | Some ws ->
      describe_wait cx (Vm.owner t) ws.Opcode.ws_frame ws.Opcode.ws_expr acc
    | None -> Printf.sprintf "%s runnable" (Vm.owner t) :: acc
    end
  | _, Nseq s -> blocked_descriptions cx acc s.s_child
  | _, Npar children -> List.fold_left (blocked_descriptions cx) acc children

(* Final variable values: the root frame (program variables) first, then
   every live node's own declarations in preorder. *)
let final_values root_frame root =
  let acc = ref [] in
  let seen = Hashtbl.create 32 in
  let add name value =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      acc := (name, value) :: !acc
    end
  in
  Hashtbl.iter (fun name cell -> add name !cell) root_frame.Env.f_vars;
  let add_array name arr =
    Array.iteri (fun i v -> add (Printf.sprintf "%s[%d]" name i) v) arr
  in
  Hashtbl.iter add_array root_frame.Env.f_arrays;
  let rec walk node =
    List.iter
      (fun (d : var_decl) ->
        match d.v_ty with
        | TArray _ ->
          begin match Env.find_array node.nd_frame d.v_name with
          | Some arr -> add_array d.v_name arr
          | None -> ()
          end
        | TBool | TInt _ ->
          begin match Env.lookup node.nd_frame d.v_name with
          | Some v -> add d.v_name v
          | None -> ()
          end)
      node.nd_behavior.b_vars;
    begin match node.nd_state with
    | Nseq s -> walk s.s_child
    | Npar children -> List.iter walk children
    | Nleaf _ | Ndone -> ()
    end
  in
  walk root;
  List.rev !acc

(* Frame-variable access for the on-commit probe: the root frame first,
   then every live node's own cell, preorder (matching [final_values]'
   first-occurrence-wins order). *)
let find_cell root_frame root name =
  match Hashtbl.find_opt root_frame.Env.f_vars name with
  | Some cell -> Some cell
  | None ->
    let rec walk node =
      let here =
        if
          List.exists
            (fun (d : var_decl) -> String.equal d.v_name name)
            node.nd_behavior.b_vars
        then Hashtbl.find_opt node.nd_frame.Env.f_vars name
        else None
      in
      match here with
      | Some _ -> here
      | None ->
        begin match node.nd_state with
        | Nseq s -> walk s.s_child
        | Npar children -> List.find_map walk children
        | Nleaf _ | Ndone -> None
        end
    in
    walk root

let outcome_to_string = function
  | Completed -> "completed"
  | Deadlock who ->
    Printf.sprintf "deadlock (%s)" (String.concat "; " who)
  | Step_limit -> "step limit exceeded"
  | Cancelled -> "cancelled"
