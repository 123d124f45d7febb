(** Width-narrowing pass.

    The type checker deliberately treats all integer widths as
    compatible (widths are bus-sizing hints); this pass reports the
    spots where that tolerance actually loses bits: assignments and
    signal assignments whose inferred source width exceeds the
    destination's declared width ([WIDTH001]), and procedure-call
    transfers that narrow — an [in] argument wider than its parameter,
    or an [out] parameter wider than the receiving variable
    ([WIDTH002]).  On refined output the latter is exactly a bus
    transfer wider than the wire it rides on.

    Width inference is structural, not value-range analysis: constants
    take the bits they need, references their declared width, [+ - * /]
    the widest operand, [mod k] the width of [k-1].  All findings are
    warnings in both phases. *)

open Spec
open Ast

let codes =
  [
    ("WIDTH001", "assignment narrows the source width");
    ("WIDTH002", "procedure-call transfer narrows the source width");
  ]

let warn = Diagnostic.Warning

let bits_for n =
  let n = abs n in
  let rec go acc v = if v = 0 then max acc 1 else go (acc + 1) (v lsr 1) in
  go 0 n

let rec width_of lookup e =
  match e with
  | Const (VInt n) -> Some (bits_for n)
  | Const (VBool _) -> None
  | Ref x ->
    (match lookup x with
    | Some (TInt w) -> Some w
    | Some (TBool | TArray _) | None -> None)
  | Index (x, _) ->
    (match lookup x with
    | Some (TArray (w, _)) -> Some w
    | Some (TBool | TInt _) | None -> None)
  | Unop (Neg, a) -> width_of lookup a
  | Unop (Not, _) -> None
  | Binop (Mod, _, Const (VInt k)) when k > 0 -> Some (bits_for (k - 1))
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) ->
    (match (width_of lookup a, width_of lookup b) with
    | Some wa, Some wb -> Some (max wa wb)
    | Some w, None | None, Some w -> Some w
    | None, None -> None)
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge | And | Or), _, _) -> None

(* scope: name -> declared type of the innermost binding *)
let dest_width scope x =
  match Names.Map.find_opt x scope with Some (TInt w) -> Some w | _ -> None

let elem_width scope x =
  match Names.Map.find_opt x scope with
  | Some (TArray (w, _)) -> Some w
  | _ -> None

let narrowing scope ~dest e =
  match (dest, width_of (fun x -> Names.Map.find_opt x scope) e) with
  | Some dw, Some sw when sw > dw -> Some (sw, dw)
  | _ -> None

module I = Dataflow.Interval

let run (ctx : Pass.t) =
  let p = ctx.Pass.lc_program in
  let acc = ref [] in
  let report ~code ~path ~loc fmt =
    Printf.ksprintf
      (fun s ->
        acc :=
          Diagnostic.make ~code ~severity:warn ~pass:"width" ~path ~loc s
          :: !acc)
      fmt
  in
  (* With flow on, a structurally narrowing transfer whose value range
     provably fits the destination is no loss of bits — suppress it. *)
  let fits env ~dw e =
    match env with
    | None -> false
    | Some env -> (
      match I.bits_needed (I.eval env e) with
      | Some b -> b <= dw
      | None -> false)
  in
  let procs =
    Names.bind (List.map (fun pr -> (pr.prc_name, pr)) p.p_procs) Names.Map.empty
  in
  let check_prim scope ~env path = function
    | Assign (x, e) ->
      (match narrowing scope ~dest:(dest_width scope x) e with
      | Some (sw, dw) when not (fits env ~dw e) ->
        report ~code:"WIDTH001" ~path ~loc:x
          "assignment to %s narrows a %d-bit value to %d bits" x sw dw
      | _ -> ())
    | Assign_idx (x, _, e) ->
      (match narrowing scope ~dest:(elem_width scope x) e with
      | Some (sw, dw) when not (fits env ~dw e) ->
        report ~code:"WIDTH001" ~path ~loc:x
          "assignment to an element of %s narrows a %d-bit value to %d bits"
          x sw dw
      | _ -> ())
    | Signal_assign (s, e) ->
      (match narrowing scope ~dest:(dest_width scope s) e with
      | Some (sw, dw) when not (fits env ~dw e) ->
        report ~code:"WIDTH001" ~path ~loc:s
          "signal assignment to %s narrows a %d-bit value to %d bits" s sw dw
      | _ -> ())
    | Call (name, args) ->
      (match Names.Map.find_opt name procs with
      | None -> ()
      | Some pr when List.length pr.prc_params = List.length args ->
        List.iter2
          (fun prm arg ->
            match (prm.prm_mode, arg, prm.prm_ty) with
            | Mode_in, Arg_expr e, TInt dw ->
              (match narrowing scope ~dest:(Some dw) e with
              | Some (sw, _) when not (fits env ~dw e) ->
                report ~code:"WIDTH002" ~path ~loc:(Expr.to_string e)
                  "argument %s of %s narrows a %d-bit value to %d bits"
                  prm.prm_name name sw dw
              | _ -> ())
            | Mode_in, Arg_var x, TInt dw ->
              (match dest_width scope x with
              | Some sw when sw > dw && not (fits env ~dw (Ref x)) ->
                report ~code:"WIDTH002" ~path ~loc:x
                  "argument %s of %s narrows a %d-bit value to %d bits"
                  prm.prm_name name sw dw
              | _ -> ())
            | Mode_out, Arg_var x, TInt sw ->
              (match dest_width scope x with
              | Some dw when sw > dw ->
                report ~code:"WIDTH002" ~path ~loc:x
                  "out parameter %s of %s narrows a %d-bit result to %d \
                   bits in %s"
                  prm.prm_name name sw dw x
              | _ -> ())
            | _ -> ())
          pr.prc_params args
      | Some _ -> ())
    | If _ | While _ | For _ | Wait_until _ | Emit _ | Skip -> ()
  in
  let var_decls = List.map (fun (v : var_decl) -> (v.v_name, v.v_ty)) in
  let base_scope =
    Names.bind (var_decls p.p_vars)
      (Names.bind
         (List.map (fun (s : sig_decl) -> (s.s_name, s.s_ty)) p.p_signals)
         Names.Map.empty)
  in
  (match ctx.Pass.lc_flow with
  | None ->
    (* Structural mode: recurse over the statement tree. *)
    let rec check_stmts scope path stmts =
      List.iter (check_stmt scope path) stmts
    and check_stmt scope path s =
      check_prim scope ~env:None path s;
      match s with
      | If (branches, els) ->
        List.iter (fun (_, body) -> check_stmts scope path body) branches;
        check_stmts scope path els
      | While (_, body) -> check_stmts scope path body
      | For (_, _, _, body) -> check_stmts scope path body
      | Assign _ | Assign_idx _ | Signal_assign _ | Wait_until _ | Call _
      | Emit _ | Skip ->
        ()
    in
    let rec walk scope path b =
      let scope = Names.bind (var_decls b.b_vars) scope in
      let path = path @ [ b.b_name ] in
      match b.b_body with
      | Leaf stmts -> check_stmts scope path stmts
      | Par children -> List.iter (walk scope path) children
      | Seq arms -> List.iter (fun a -> walk scope path a.a_behavior) arms
    in
    walk base_scope [] p.p_top;
    List.iter
      (fun pr ->
        let scope =
          Names.bind (var_decls pr.prc_vars)
            (Names.bind
               (List.map (fun prm -> (prm.prm_name, prm.prm_ty)) pr.prc_params)
               base_scope)
        in
        check_stmts scope [ "procedure " ^ pr.prc_name ] pr.prc_body)
      p.p_procs
  | Some fl ->
    (* Flow mode: walk the CFGs — only reachable, hand-written nodes,
       each with its interval environment. *)
    let ty_scope scope =
      Names.bind
        (List.map
           (fun (name, b) ->
             match b with
             | Flow.Fvar { ty; _ } -> (name, ty)
             | Flow.Fsig { ty; _ } -> (name, ty))
           scope)
        Names.Map.empty
    in
    let check_cfg scope path cfg reach env =
      Array.iteri
        (fun i (node : Cfg.node) ->
          if reach.(i) && not node.Cfg.n_synth then
            match node.Cfg.n_kind with
            | Cfg.Nstmt s -> check_prim scope ~env:(Some env.(i)) path s
            | Cfg.Nentry | Cfg.Nexit | Cfg.Nbranch _ -> ())
        cfg.Cfg.c_nodes
    in
    List.iter
      (fun (_, (li : Flow.leaf_info)) ->
        check_cfg (ty_scope li.Flow.li_scope) li.Flow.li_path li.Flow.li_cfg
          li.Flow.li_reach li.Flow.li_env)
      fl.Flow.fl_leaves;
    List.iter
      (fun (_, (pi : Flow.proc_info)) ->
        check_cfg (ty_scope pi.Flow.pi_scope)
          [ "procedure " ^ pi.Flow.pi_name ]
          pi.Flow.pi_cfg pi.Flow.pi_reach pi.Flow.pi_env)
      fl.Flow.fl_procs);
  !acc

let pass = { Pass.p_name = "width"; p_codes = codes; p_run = run }
