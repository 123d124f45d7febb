open Spec
open Spec.Ast

exception Refine_error of string

let refine_error fmt = Printf.ksprintf (fun s -> raise (Refine_error s)) fmt

type ctx = {
  dr_naming : Naming.t;
  dr_is_program_var : string -> bool;
  dr_ty_of : string -> ty;
  dr_addr_of : string -> int;
  dr_bus_of : string -> Protocol.bus_signals;
  dr_arb_of : region:string -> string -> Arbiter.requester option;
      (** the requester of the given sequential region on the bus of the
          given variable, when that bus is arbitrated.  A {e region} is a
          maximal Par-free subtree: every child of a parallel composition
          starts a new region (named after that child), because its
          leaves execute concurrently with its siblings' and must hold
          their own request/acknowledge pair. *)
}

let bracket ctx ~region v stmts =
  match ctx.dr_arb_of ~region v with
  | None -> stmts
  | Some r -> Arbiter.acquire r @ stmts @ Arbiter.release r

let load_stmts ctx ~region ~var ~tmp =
  let bs = ctx.dr_bus_of var in
  bracket ctx ~region var
    [ Protocol.master_read bs ~addr:(ctx.dr_addr_of var) ~target:tmp ]

let store_stmts ctx ~region ~var ~value =
  let bs = ctx.dr_bus_of var in
  bracket ctx ~region var
    [ Protocol.master_write bs ~addr:(ctx.dr_addr_of var) ~value ]

(* Element accesses of a memory-mapped array: the bus address is the
   array's base plus the (already rewritten) index expression. *)
let elem_addr ctx var index = Expr.(int (ctx.dr_addr_of var) + index)

let load_elem_stmts ctx ~region ~var ~index ~tmp =
  let bs = ctx.dr_bus_of var in
  bracket ctx ~region var
    [
      Call
        ( Protocol.mst_receive_name bs,
          [ Arg_expr (elem_addr ctx var index); Arg_var tmp ] );
    ]

let store_elem_stmts ctx ~region ~var ~index ~value =
  let bs = ctx.dr_bus_of var in
  bracket ctx ~region var
    [
      Call
        ( Protocol.mst_send_name bs,
          [ Arg_expr (elem_addr ctx var index); Arg_expr value ] );
    ]

(* Per-behavior rewriting state: the tmp variable allocated for each
   partitioned variable read inside this behavior. *)
type tmps = {
  mutable mapping : string Names.Map.t;  (** variable -> tmp *)
  mutable decls : var_decl list;  (** newest first *)
}

let new_tmps () = { mapping = Names.Map.empty; decls = [] }

let declare tmps name ty = tmps.decls <- Builder.var name ty :: tmps.decls

(* [vars] followed by the tmps, in allocation order. *)
let with_tmps vars tmps = vars @ List.rev tmps.decls

(* Booleans travel over the integer data bus encoded as int<1> (1/0), so
   the tmp of a boolean variable is an integer; reads decode it with
   [tmp /= 0] and writes pre-encode into the same tmp. *)
let is_bool_var ctx v =
  match ctx.dr_ty_of v with TBool -> true | TInt _ | TArray _ -> false

let bus_rep_ty ctx v =
  match ctx.dr_ty_of v with
  | TBool -> TInt 1
  | TInt w -> TInt w
  | TArray (w, _) -> TInt w  (* element transfers *)

let tmp_for ctx tmps v =
  match Names.Map.find_opt v tmps.mapping with
  | Some t -> t
  | None ->
    let t = Naming.tmp_var ctx.dr_naming v in
    tmps.mapping <- Names.Map.add v t tmps.mapping;
    declare tmps t (bus_rep_ty ctx v);
    t

(* The expression standing for a (loaded) read of [v]. *)
let read_of ctx tmps v =
  let t = Names.Map.find v tmps.mapping in
  if is_bool_var ctx v then Expr.(ref_ t <> int 0) else Expr.ref_ t

(* Statements encoding [value] (of v's declared type) into v's tmp before
   an [MST_send]. *)
let encode_into ctx tmps v value =
  let t = tmp_for ctx tmps v in
  if is_bool_var ctx v then
    [ If ([ (value, [ Assign (t, Expr.int 1) ]) ], [ Assign (t, Expr.int 0) ]) ]
  else [ Assign (t, value) ]

(* Is [x] a partitioned variable here (not shadowed by a local)? *)
let remote ctx shadowed x =
  ctx.dr_is_program_var x && not (Names.Set.mem x shadowed)

(* Rewrite an expression: returns the load statements that must precede
   its evaluation and the expression with remote reads substituted.
   Scalar reads share one tmp per (behavior, variable); array-element
   reads get one fresh tmp per occurrence, because each occurrence may
   index a different element. *)
let rec rw_expr ctx region shadowed tmps e =
  match e with
  | Const _ -> ([], e)
  | Ref x ->
    if remote ctx shadowed x then begin
      let tmp = tmp_for ctx tmps x in
      (load_stmts ctx ~region ~var:x ~tmp, read_of ctx tmps x)
    end
    else ([], e)
  | Index (x, i) ->
    let pre_i, i' = rw_expr ctx region shadowed tmps i in
    if remote ctx shadowed x then begin
      let tmp = Naming.fresh ctx.dr_naming ("tmp_" ^ x ^ "_elt") in
      declare tmps tmp (bus_rep_ty ctx x);
      ( pre_i @ load_elem_stmts ctx ~region ~var:x ~index:i' ~tmp,
        Expr.ref_ tmp )
    end
    else (pre_i, Index (x, i'))
  | Unop (op, a) ->
    let pre, a' = rw_expr ctx region shadowed tmps a in
    (pre, Unop (op, a'))
  | Binop (op, a, b) ->
    let pre_a, a' = rw_expr ctx region shadowed tmps a in
    let pre_b, b' = rw_expr ctx region shadowed tmps b in
    (pre_a @ pre_b, Binop (op, a', b'))

let rec rw_stmts ctx region shadowed tmps stmts =
  List.concat_map (rw_stmt ctx region shadowed tmps) stmts

and rw_stmt ctx region shadowed tmps = function
  | Assign (x, e) when remote ctx shadowed x ->
    let pre, e' = rw_expr ctx region shadowed tmps e in
    let enc = encode_into ctx tmps x e' in
    let t = Names.Map.find x tmps.mapping in
    pre @ enc @ store_stmts ctx ~region ~var:x ~value:(Expr.ref_ t)
  | Assign (x, e) ->
    let pre, e' = rw_expr ctx region shadowed tmps e in
    pre @ [ Assign (x, e') ]
  | Assign_idx (x, i, e) when remote ctx shadowed x ->
    let pre_i, i' = rw_expr ctx region shadowed tmps i in
    let pre_e, e' = rw_expr ctx region shadowed tmps e in
    pre_i @ pre_e
    @ store_elem_stmts ctx ~region ~var:x ~index:i' ~value:e'
  | Assign_idx (x, i, e) ->
    let pre_i, i' = rw_expr ctx region shadowed tmps i in
    let pre_e, e' = rw_expr ctx region shadowed tmps e in
    pre_i @ pre_e @ [ Assign_idx (x, i', e') ]
  | Signal_assign (s, e) ->
    let pre, e' = rw_expr ctx region shadowed tmps e in
    pre @ [ Signal_assign (s, e') ]
  | If (branches, els) ->
    (* All branch conditions are loaded up front; the extra reads are
       side-effect-free protocol transactions, so only the access count
       changes, never the outcome. *)
    let pres, branches' =
      List.fold_left
        (fun (pres, acc) (c, body) ->
          let pre, c' = rw_expr ctx region shadowed tmps c in
          (pres @ pre, acc @ [ (c', rw_stmts ctx region shadowed tmps body) ]))
        ([], []) branches
    in
    pres @ [ If (branches', rw_stmts ctx region shadowed tmps els) ]
  | While (c, body) ->
    let pre, c' = rw_expr ctx region shadowed tmps c in
    (* The condition is re-evaluated on every iteration, so the loads are
       replayed at the end of the body. *)
    pre @ [ While (c', rw_stmts ctx region shadowed tmps body @ pre) ]
  | For (i, lo, hi, body) ->
    if remote ctx shadowed i then
      refine_error "for-loop index %s is a partitioned variable" i;
    let pre_lo, lo' = rw_expr ctx region shadowed tmps lo in
    let pre_hi, hi' = rw_expr ctx region shadowed tmps hi in
    pre_lo @ pre_hi @ [ For (i, lo', hi', rw_stmts ctx region shadowed tmps body) ]
  | Wait_until c ->
    let pre, c' = rw_expr ctx region shadowed tmps c in
    if pre = [] then [ Wait_until c ]
    else
      (* A wait on a condition over a memory-mapped variable becomes a
         polling loop: reload, test, repeat. *)
      pre @ [ While (Unop (Not, c'), pre) ]
  | Call (p, args) ->
    let pres, args' =
      List.fold_left
        (fun (pres, acc) arg ->
          match arg with
          | Arg_expr e ->
            let pre, e' = rw_expr ctx region shadowed tmps e in
            (pres @ pre, acc @ [ Arg_expr e' ])
          | Arg_var x ->
            if remote ctx shadowed x then
              refine_error
                "out argument %s of call to %s is a partitioned variable" x p
            else (pres, acc @ [ Arg_var x ]))
        ([], []) args
    in
    pres @ [ Call (p, args') ]
  | Emit (tag, e) ->
    let pre, e' = rw_expr ctx region shadowed tmps e in
    pre @ [ Emit (tag, e') ]
  | Skip -> [ Skip ]

(* TOC-condition refinement for one sequential composition (Figure 6):
   the composite gets a tmp per variable read in its transition
   conditions, and each arm whose transitions read partitioned variables
   gets the load statements appended to the end of its child. *)
let rec refine_seq ctx region shadowed b arms =
  let tmps = new_tmps () in
  let arms' =
    List.map
      (fun a ->
        let child = refine ctx region shadowed a.a_behavior in
        (* Rewrite every transition condition; the resulting loads run at
           the end of the arm's child (Figure 6). *)
        let loader, transitions =
          List.fold_left
            (fun (loader, ts) t ->
              match t.t_cond with
              | None -> (loader, ts @ [ t ])
              | Some c ->
                let pre, c' = rw_expr ctx region shadowed tmps c in
                (loader @ pre, ts @ [ { t with t_cond = Some c' } ]))
            ([], []) a.a_transitions
        in
        if loader = [] then { a_behavior = child; a_transitions = transitions }
        else begin
          let child' =
            match child.b_body with
            | Leaf stmts -> { child with b_body = Leaf (stmts @ loader) }
            | Seq _ | Par _ ->
              (* Wrap: run the child, then the loader leaf, then evaluate
                 the (rewritten) outer transitions. *)
              let loader_name =
                Naming.fresh ctx.dr_naming (child.b_name ^ "_toc_load")
              in
              let wrapper_name =
                Naming.fresh ctx.dr_naming (child.b_name ^ "_toc")
              in
              Behavior.seq wrapper_name
                [
                  Behavior.arm child;
                  Behavior.arm (Behavior.leaf loader_name loader);
                ]
          in
          { a_behavior = child'; a_transitions = transitions }
        end)
      arms
  in
  (* Sibling Goto targets must follow wrapper renames. *)
  let renames =
    List.map2
      (fun old_arm new_arm ->
        (old_arm.a_behavior.b_name, new_arm.a_behavior.b_name))
      arms arms'
    |> List.filter (fun (o, n) -> not (String.equal o n))
  in
  let arms' =
    List.map
      (fun a ->
        {
          a with
          a_transitions =
            List.map
              (fun t ->
                match t.t_target with
                | Goto g ->
                  begin match List.assoc_opt g renames with
                  | Some g' -> { t with t_target = Goto g' }
                  | None -> t
                  end
                | Complete -> t)
              a.a_transitions;
        })
      arms'
  in
  { b with b_body = Seq arms'; b_vars = with_tmps b.b_vars tmps }

and refine ctx region shadowed b =
  let shadowed =
    List.fold_left (fun s v -> Names.Set.add v.v_name s) shadowed b.b_vars
  in
  match b.b_body with
  | Leaf stmts ->
    let tmps = new_tmps () in
    let stmts' = rw_stmts ctx region shadowed tmps stmts in
    { b with b_body = Leaf stmts'; b_vars = with_tmps b.b_vars tmps }
  | Par children ->
    (* Every parallel child starts its own sequential region, named after
       the child (behavior names are unique program-wide). *)
    {
      b with
      b_body = Par (List.map (fun c -> refine ctx c.b_name shadowed c) children);
    }
  | Seq arms -> refine_seq ctx region shadowed b arms

let refine_behavior ctx ~root_region b =
  refine ctx root_region Names.Set.empty b
