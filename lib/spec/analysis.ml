open Ast

type access_kind = Read | Write

type access = {
  ac_var : string;  (** a program-level variable *)
  ac_kind : access_kind;
  ac_count : int;  (** static execution-count estimate of the access site *)
}

(* Aggregate a list of raw (var, kind, count) accesses per (var, kind). *)
let aggregate raw =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (v, k, c) ->
      let key = (v, k) in
      let prev = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0 in
      Hashtbl.replace tbl key (prev + c))
    raw;
  (* Deterministic order: by first occurrence in [raw]. *)
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (v, k, _) ->
      if Hashtbl.mem seen (v, k) then None
      else begin
        Hashtbl.add seen (v, k) ();
        Some { ac_var = v; ac_kind = k; ac_count = Hashtbl.find tbl (v, k) }
      end)
    raw

(* Static loop-bound estimate: constant [for] bounds give the exact trip
   count, anything else falls back to [while_iterations]. *)
let for_trip_count ~while_iterations lo hi =
  match (Expr.eval_const lo, Expr.eval_const hi) with
  | Some (VInt a), Some (VInt b) -> max 0 (b - a + 1)
  | _ -> while_iterations

let rec raw_stmt_accesses ~while_iterations ~visible mult stmts =
  List.concat_map (raw_stmt ~while_iterations ~visible mult) stmts

and expr_reads ~visible mult e =
  List.filter_map
    (fun x -> if List.mem x visible then Some (x, Read, mult) else None)
    (Expr.refs e)

and write_of ~visible mult x =
  if List.mem x visible then [ (x, Write, mult) ] else []

and raw_stmt ~while_iterations ~visible mult = function
  | Assign (x, e) -> write_of ~visible mult x @ expr_reads ~visible mult e
  | Assign_idx (x, i, e) ->
    write_of ~visible mult x
    @ expr_reads ~visible mult i
    @ expr_reads ~visible mult e
  | Signal_assign (_, e) -> expr_reads ~visible mult e
  | If (branches, els) ->
    (* Branch bodies are weighted as if each branch executes once: the
       static estimator has no branch probabilities, and the paper's rate
       metric only needs relative magnitudes. *)
    List.concat_map
      (fun (c, body) ->
        expr_reads ~visible mult c
        @ raw_stmt_accesses ~while_iterations ~visible mult body)
      branches
    @ raw_stmt_accesses ~while_iterations ~visible mult els
  | While (c, body) ->
    let inner = mult * while_iterations in
    expr_reads ~visible inner c
    @ raw_stmt_accesses ~while_iterations ~visible inner body
  | For (i, lo, hi, body) ->
    let trips = for_trip_count ~while_iterations lo hi in
    let inner = mult * trips in
    write_of ~visible mult i
    @ expr_reads ~visible mult lo
    @ expr_reads ~visible mult hi
    @ raw_stmt_accesses ~while_iterations ~visible inner body
  | Wait_until c -> expr_reads ~visible mult c
  | Call (_, args) ->
    List.concat_map
      (function
        | Arg_expr e -> expr_reads ~visible mult e
        | Arg_var x -> write_of ~visible mult x)
      args
  | Emit (_, e) -> expr_reads ~visible mult e
  | Skip -> []

(* Walk the behavior tree collecting, for every behavior name, its accesses
   to the program-level variables in [visible].  Local declarations shadow
   program variables for the whole subtree.  TOC-condition reads are
   attributed to the arm's child behavior, because the refined protocol
   call is inserted at the end of that child (paper, Figure 6). *)
let behavior_accesses ?(while_iterations = 8) (p : program) :
    (string * access list) list =
  let result = ref [] in
  let rec walk visible b =
    let visible =
      List.filter
        (fun x -> not (List.exists (fun v -> String.equal v.v_name x) b.b_vars))
        visible
    in
    let own =
      match b.b_body with
      | Leaf stmts -> raw_stmt_accesses ~while_iterations ~visible 1 stmts
      | Seq _ | Par _ -> []
    in
    let toc_extra =
      match b.b_body with
      | Seq arms ->
        List.map
          (fun a ->
            let reads =
              List.concat_map
                (fun t ->
                  match t.t_cond with
                  | Some c -> expr_reads ~visible 1 c
                  | None -> [])
                a.a_transitions
            in
            (a.a_behavior.b_name, reads))
          arms
      | Leaf _ | Par _ -> []
    in
    result := (b.b_name, own) :: !result;
    List.iter
      (fun child ->
        walk visible child;
        match List.assoc_opt child.b_name toc_extra with
        | Some extra when extra <> [] ->
          result :=
            List.map
              (fun (n, acc) ->
                if String.equal n child.b_name then (n, acc @ extra)
                else (n, acc))
              !result
        | _ -> ())
      (Behavior.children b)
  in
  walk (List.map (fun v -> v.v_name) p.p_vars) p.p_top;
  List.rev_map (fun (n, raw) -> (n, aggregate raw)) !result

(** Accesses of one named behavior (leaf statement accesses plus the TOC
    reads attributed to it). *)
let accesses_of p name =
  match List.assoc_opt name (behavior_accesses p) with
  | Some acc -> acc
  | None -> []

(** For every program variable, the behaviors that read or write it
    (deduplicated, in tree preorder). *)
let var_users p =
  let per_behavior = behavior_accesses p in
  List.map
    (fun v ->
      let users =
        List.filter_map
          (fun (bname, accs) ->
            if List.exists (fun a -> String.equal a.ac_var v.v_name) accs then
              Some bname
            else None)
          per_behavior
      in
      (v.v_name, users))
    p.p_vars
