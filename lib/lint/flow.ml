(** Program-level flow summary; see the interface.

    One {!Cfg} + interval fixpoint + liveness fixpoint per leaf behavior
    (and per procedure body, intervals only), stitched together with the
    program-wide constant environment (declarations never written
    anywhere keep their initializer).  Everything here is shared by the
    flow-sensitive modes of the lint passes and by the fixer; the
    summary is cached per program digest so the passes and the CLI can
    each ask for it without recomputing. *)

open Spec
open Ast
module I = Dataflow.Interval
module N = Dataflow.Names

type binding =
  | Fvar of { key : string; ty : ty; init : value option }
  | Fsig of { ty : ty; init : value option }

type leaf_info = {
  li_behavior : string;
  li_path : string list;
  li_scope : (string * binding) list;  (** innermost binding first *)
  li_cfg : Cfg.t;
  li_reach : bool array;
  li_env : I.env array;  (** interval state on node entry; valid where reachable *)
  li_live_out : N.t array;  (** variables live after each node *)
  li_iterations : int;  (** interval worklist pops until fixpoint *)
  li_dead_stores : (int * string) list;
      (** reachable non-synthesized assignments whose value is
          overwritten before any read *)
  li_var_reads : (string * string) list;  (** reachable (decl key, name) *)
  li_var_writes : (string * string) list;
  li_sig_reads : string list;
  li_sig_writes : string list;
}

type proc_info = {
  pi_name : string;
  pi_scope : (string * binding) list;
  pi_cfg : Cfg.t;
  pi_reach : bool array;
  pi_env : I.env array;
}

type summary = {
  fl_program : program;
  fl_leaves : (string * leaf_info) list;  (** keyed by behavior name *)
  fl_procs : (string * proc_info) list;
  fl_consts : (string * value) list;
      (** program-level declarations never written anywhere *)
  fl_const_env : I.env;
  fl_for_counters : N.t;  (** decl keys used as [for] counters *)
}

let leaf s name = List.assoc_opt name s.fl_leaves

let leaf_at s path =
  Option.map snd
    (List.find_opt (fun (_, li) -> li.li_path = path) s.fl_leaves)

(* ------------------------------------------------------------------ *)
(* Scope walk: every leaf with its resolved scope, mirroring           *)
(* [Pass.make_ctx] (decl keys are [owner.name] for locals).            *)

type raw_leaf = {
  rl_name : string;
  rl_path : string list;
  rl_stmts : stmt list;
  rl_scope : (string * binding) list;
  rl_own : string list;  (** the leaf's own locals — private storage *)
}

let base_scope (p : program) =
  List.map
    (fun (v : var_decl) ->
      (v.v_name, Fvar { key = v.v_name; ty = v.v_ty; init = v.v_init }))
    p.p_vars
  @ List.map
      (fun (s : sig_decl) -> (s.s_name, Fsig { ty = s.s_ty; init = s.s_init }))
      p.p_signals

let collect_leaves (p : program) =
  let rec walk scope path b acc =
    let scope =
      List.map
        (fun (v : var_decl) ->
          ( v.v_name,
            Fvar { key = b.b_name ^ "." ^ v.v_name; ty = v.v_ty; init = v.v_init }
          ))
        b.b_vars
      @ scope
    in
    let path = path @ [ b.b_name ] in
    match b.b_body with
    | Leaf stmts ->
      {
        rl_name = b.b_name;
        rl_path = path;
        rl_stmts = stmts;
        rl_scope = scope;
        rl_own = List.map (fun (v : var_decl) -> v.v_name) b.b_vars;
      }
      :: acc
    | Par children -> List.fold_left (fun acc c -> walk scope path c acc) acc children
    | Seq arms ->
      List.fold_left (fun acc a -> walk scope path a.a_behavior acc) acc arms
  in
  List.rev (walk (base_scope p) [] p.p_top [])

(* A procedure local shadows a same-named parameter, as in [Typecheck]
   and the structural width pass. *)
let proc_scope (p : program) (pr : proc_decl) =
  List.map
    (fun (v : var_decl) ->
      ( v.v_name,
        Fvar { key = pr.prc_name ^ "." ^ v.v_name; ty = v.v_ty; init = v.v_init }
      ))
    pr.prc_vars
  @ List.map
      (fun prm ->
        ( prm.prm_name,
          Fvar
            { key = pr.prc_name ^ "." ^ prm.prm_name; ty = prm.prm_ty; init = None }
        ))
      pr.prc_params
  @ base_scope p

(* ------------------------------------------------------------------ *)
(* Which declarations are ever written (decl keys for variables, raw   *)
(* names for signals)?  Declarations outside both sets are constants   *)
(* and seed every boundary environment with their initializer.         *)

let written_sets (p : program) leaves =
  let vkeys = ref N.empty and snames = ref N.empty in
  let record scope stmts =
    List.iter
      (fun x ->
        match List.assoc_opt x scope with
        | Some (Fvar f) -> vkeys := N.add f.key !vkeys
        | Some (Fsig _) | None -> ())
      (Stmt.writes stmts);
    List.iter
      (fun x ->
        match List.assoc_opt x scope with
        | Some (Fsig _) -> snames := N.add x !snames
        | Some (Fvar _) | None -> ())
      (Stmt.signal_writes stmts)
  in
  List.iter (fun rl -> record rl.rl_scope rl.rl_stmts) leaves;
  List.iter
    (fun pr ->
      let scope = proc_scope p pr in
      record scope pr.prc_body;
      (* parameters are written by every call: never constants *)
      List.iter
        (fun prm -> vkeys := N.add (pr.prc_name ^ "." ^ prm.prm_name) !vkeys)
        pr.prc_params)
    p.p_procs;
  (!vkeys, !snames)

let for_counter_keys leaves =
  let acc = ref N.empty in
  let rec scan scope stmts =
    List.iter
      (fun s ->
        match s with
        | For (i, _, _, body) ->
          (match List.assoc_opt i scope with
          | Some (Fvar f) -> acc := N.add f.key !acc
          | _ -> ());
          scan scope body
        | If (branches, els) ->
          List.iter (fun (_, b) -> scan scope b) branches;
          scan scope els
        | While (_, body) -> scan scope body
        | Assign _ | Assign_idx _ | Signal_assign _ | Wait_until _ | Call _
        | Emit _ | Skip ->
          ())
      stmts
  in
  List.iter (fun rl -> scan rl.rl_scope rl.rl_stmts) leaves;
  !acc

(** Boundary environment of one scope: bindings never written anywhere
    hold their initializer (or the type default) forever. *)
let boundary_env ~written_vars ~written_sigs scope =
  (* outermost first so inner bindings overwrite *)
  List.fold_left
    (fun env (name, b) ->
      match b with
      | Fvar f when not (N.mem f.key written_vars) ->
        let v = match f.init with Some v -> v | None -> default_value f.ty in
        I.env_set name (I.of_value v) env
      | Fsig s when not (N.mem name written_sigs) ->
        let v = match s.init with Some v -> v | None -> default_value s.ty in
        I.env_set name (I.of_value v) env
      | _ -> env)
    I.env_empty (List.rev scope)

(* ------------------------------------------------------------------ *)
(* The interval analysis of one statement list.                        *)

let branch_filter env c e =
  let v = I.eval env c in
  match (e : Cfg.edge) with
  | Eseq -> Some env
  | Etrue -> if I.definitely_false v then None else I.assume env c true
  | Efalse -> if I.definitely_true v then None else I.assume env c false

(** Run the interval fixpoint over [cfg].  [boundary] seeds the entry
    state; at blocking nodes every binding is re-set to [boundary]
    except the [keep] names (private storage no concurrent sibling can
    touch), which keep their current interval. *)
let solve_intervals ~boundary ~keep cfg =
  let havoc env =
    List.fold_left (fun acc x -> I.env_set x (I.env_find x env) acc) boundary keep
  in
  let module D = struct
    type t = I.env option

    let direction = `Forward
    let bottom = None
    let is_bottom = Option.is_none
    let boundary = Some boundary

    let equal a b =
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> I.env_equal a b
      | _ -> false

    let join a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (I.env_join a b)

    let widen a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (I.env_widen a b)

    let transfer (n : Cfg.node) st =
      match st with
      | None -> None
      | Some env -> (
        match n.n_kind with
        | Nentry | Nexit | Nbranch _ -> Some env
        | Nstmt s -> (
          match s with
          | Assign (x, e) -> Some (I.env_set x (I.eval env e) env)
          | Assign_idx _ | Emit _ | Skip -> Some env
          | Signal_assign (s, _) -> Some (I.env_set s I.top env)
          | Wait_until c ->
            (* suspension: concurrent siblings may run, then the wait
               condition holds when we resume *)
            I.assume (havoc env) c true
          | Call (_, args) ->
            let env = havoc env in
            Some
              (List.fold_left
                 (fun env -> function
                   | Arg_var x -> I.env_set x I.top env
                   | Arg_expr _ -> env)
                 env args)
          | If _ | While _ | For _ -> Some env))

    let edge (n : Cfg.node) e st =
      match st with
      | None -> None
      | Some env -> (
        match n.n_kind with
        | Nbranch c -> (
          match branch_filter env c e with
          | None -> None
          | Some env -> Some (Some env))
        | _ -> Some (Some env))
  end in
  let module S = Dataflow.Solve (D) in
  let r = S.run cfg in
  (r.S.r_in, r.S.r_out, r.S.r_iterations)

(* ------------------------------------------------------------------ *)
(* The liveness analysis, gated by interval edge feasibility.          *)

let solve_liveness ~exit_live ~feasible cfg =
  let module D = struct
    type t = N.t option

    let direction = `Backward
    let bottom = None
    let is_bottom = Option.is_none
    let boundary = Some exit_live

    let equal a b =
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> N.equal a b
      | _ -> false

    let join a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (N.union a b)

    let widen = join

    let transfer (n : Cfg.node) st =
      match st with
      | None -> None
      | Some live ->
        Some (N.union (N.of_list (Cfg.uses n)) (N.diff live (N.of_list (Cfg.defs n))))

    let edge (n : Cfg.node) e st =
      if feasible n.Cfg.n_id e then Some st else None
  end in
  let module S = Dataflow.Solve (D) in
  let r = S.run cfg in
  (r.S.r_in, r.S.r_out, r.S.r_iterations)

(* ------------------------------------------------------------------ *)
(* Assembly.                                                           *)

let edge_tag : Cfg.edge -> int = function Eseq -> 0 | Etrue -> 1 | Efalse -> 2

let analyze_leaf ~written_vars ~written_sigs ~global_reads rl =
  let cfg = Cfg.build rl.rl_stmts in
  let boundary = boundary_env ~written_vars ~written_sigs rl.rl_scope in
  let iv_in, iv_out, iterations = solve_intervals ~boundary ~keep:rl.rl_own cfg in
  let n = Cfg.size cfg in
  let reach = Array.map Option.is_some iv_in in
  let env = Array.map (function Some e -> e | None -> I.env_empty) iv_in in
  (* Interval-infeasible edges, for gating the backward pass. *)
  let feasible_tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    match iv_out.(i) with
    | None -> ()
    | Some out_env ->
      let node = Cfg.node cfg i in
      List.iter
        (fun (e, _) ->
          let ok =
            match node.Cfg.n_kind with
            | Nbranch c -> branch_filter out_env c e <> None
            | _ -> true
          in
          if ok then Hashtbl.replace feasible_tbl (i, edge_tag e) ())
        node.Cfg.n_succ
  done;
  let feasible i e = Hashtbl.mem feasible_tbl (i, edge_tag e) in
  let _, lv_out, _ = solve_liveness ~exit_live:global_reads ~feasible cfg in
  let live_out =
    Array.map (function Some s -> s | None -> N.empty) lv_out
  in
  (* Dead stores: a reachable, hand-written assignment to a variable
     that is read somewhere in the program, but whose stored value is
     overwritten before any read on every feasible path. *)
  let dead = ref [] in
  for i = 0 to n - 1 do
    let node = Cfg.node cfg i in
    if reach.(i) && not node.Cfg.n_synth then
      match node.Cfg.n_kind with
      | Nstmt (Assign (x, _)) ->
        if N.mem x global_reads && not (N.mem x live_out.(i)) then
          dead := (i, x) :: !dead
      | _ -> ()
  done;
  (* Accesses restricted to reachable nodes, resolved against scope. *)
  let var_reads = ref [] and var_writes = ref [] in
  let sig_reads = ref [] and sig_writes = ref [] in
  let resolve x = List.assoc_opt x rl.rl_scope in
  for i = 0 to n - 1 do
    if reach.(i) then begin
      let node = Cfg.node cfg i in
      List.iter
        (fun x ->
          match resolve x with
          | Some (Fvar f) -> var_reads := (f.key, x) :: !var_reads
          | Some (Fsig _) -> sig_reads := x :: !sig_reads
          | None -> ())
        (Cfg.uses node);
      List.iter
        (fun x ->
          match resolve x with
          | Some (Fvar f) -> var_writes := (f.key, x) :: !var_writes
          | _ -> ())
        (Cfg.defs node);
      (* partial array updates write too, they just do not kill *)
      (match node.Cfg.n_kind with
      | Nstmt (Assign_idx (x, _, _)) -> (
        match resolve x with
        | Some (Fvar f) -> var_writes := (f.key, x) :: !var_writes
        | _ -> ())
      | _ -> ());
      List.iter
        (fun x ->
          match resolve x with
          | Some (Fsig _) -> sig_writes := x :: !sig_writes
          | _ -> ())
        (Cfg.sig_defs node)
    end
  done;
  let uniq l = List.sort_uniq compare l in
  {
    li_behavior = rl.rl_name;
    li_path = rl.rl_path;
    li_scope = rl.rl_scope;
    li_cfg = cfg;
    li_reach = reach;
    li_env = env;
    li_live_out = live_out;
    li_iterations = iterations;
    li_dead_stores = List.rev !dead;
    li_var_reads = uniq !var_reads;
    li_var_writes = uniq !var_writes;
    li_sig_reads = uniq !sig_reads;
    li_sig_writes = uniq !sig_writes;
  }

let analyze_proc (p : program) ~written_vars ~written_sigs (pr : proc_decl) =
  let scope = proc_scope p pr in
  let cfg = Cfg.build pr.prc_body in
  let boundary = boundary_env ~written_vars ~written_sigs scope in
  (* Frame storage (in-parameters and locals) survives suspension; out
     parameters alias caller storage and are havocked with the rest. *)
  let keep =
    List.filter_map
      (fun prm -> if prm.prm_mode = Mode_in then Some prm.prm_name else None)
      pr.prc_params
    @ List.map (fun (v : var_decl) -> v.v_name) pr.prc_vars
  in
  let iv_in, _, _ = solve_intervals ~boundary ~keep cfg in
  {
    pi_name = pr.prc_name;
    pi_scope = scope;
    pi_cfg = cfg;
    pi_reach = Array.map Option.is_some iv_in;
    pi_env = Array.map (function Some e -> e | None -> I.env_empty) iv_in;
  }

let compute (p : program) =
  let leaves = collect_leaves p in
  let written_vars, written_sigs = written_sets p leaves in
  (* Raw names read anywhere: the sound live-at-exit set (a leaf can be
     re-entered through a TOC arc, so its storage may be read again). *)
  let global_reads =
    let acc = ref N.empty in
    let add names = List.iter (fun x -> acc := N.add x !acc) names in
    List.iter (fun rl -> add (Stmt.reads rl.rl_stmts)) leaves;
    List.iter (fun pr -> add (Stmt.reads pr.prc_body)) p.p_procs;
    Behavior.fold
      (fun () b ->
        match b.b_body with
        | Seq arms ->
          List.iter
            (fun a ->
              List.iter
                (fun tr ->
                  match tr.t_cond with
                  | Some c -> add (Expr.refs c)
                  | None -> ())
                a.a_transitions)
            arms
        | Leaf _ | Par _ -> ())
      () p.p_top;
    !acc
  in
  let fl_leaves =
    List.map
      (fun rl ->
        (rl.rl_name, analyze_leaf ~written_vars ~written_sigs ~global_reads rl))
      leaves
  in
  let fl_procs =
    List.map
      (fun pr -> (pr.prc_name, analyze_proc p ~written_vars ~written_sigs pr))
      p.p_procs
  in
  let fl_consts =
    List.filter_map
      (function
        | name, Fvar f when not (N.mem f.key written_vars) ->
          Some (name, match f.init with Some v -> v | None -> default_value f.ty)
        | name, Fsig s when not (N.mem name written_sigs) ->
          Some (name, match s.init with Some v -> v | None -> default_value s.ty)
        | _ -> None)
      (base_scope p)
  in
  let fl_const_env =
    List.fold_left
      (fun env (x, v) -> I.env_set x (I.of_value v) env)
      I.env_empty fl_consts
  in
  {
    fl_program = p;
    fl_leaves;
    fl_procs;
    fl_consts;
    fl_const_env;
    fl_for_counters = for_counter_keys leaves;
  }

(* ------------------------------------------------------------------ *)
(* Digest cache (domain-local, bounded).                               *)

let cache_key : (string, summary) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let of_program (p : program) =
  let tbl = Domain.DLS.get cache_key in
  let d = Digest.string (Marshal.to_string p []) in
  match Hashtbl.find_opt tbl d with
  | Some s when s.fl_program == p || equal_program s.fl_program p -> s
  | _ ->
    let s = compute p in
    if Hashtbl.length tbl >= 8 then Hashtbl.reset tbl;
    Hashtbl.replace tbl d s;
    s

(** Truth value of a condition under the program-wide constants, when
    the interval analysis can decide it. *)
let cond_value s c =
  let v = I.eval s.fl_const_env c in
  if I.definitely_true v then Some true
  else if I.definitely_false v then Some false
  else None

let is_for_counter s key = N.mem key s.fl_for_counters
