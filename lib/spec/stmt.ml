open Ast

let rec fold_exprs f acc stmts = List.fold_left (fold_expr_stmt f) acc stmts

and fold_expr_stmt f acc = function
  | Assign (_, e) -> f acc e
  | Assign_idx (_, i, e) -> f (f acc i) e
  | Signal_assign (_, e) -> f acc e
  | If (branches, els) ->
    let acc =
      List.fold_left
        (fun acc (c, body) -> fold_exprs f (f acc c) body)
        acc branches
    in
    fold_exprs f acc els
  | While (c, body) -> fold_exprs f (f acc c) body
  | For (_, lo, hi, body) -> fold_exprs f (f (f acc lo) hi) body
  | Wait_until c -> f acc c
  | Call (_, args) ->
    List.fold_left
      (fun acc -> function Arg_expr e -> f acc e | Arg_var _ -> acc)
      acc args
  | Emit (_, e) -> f acc e
  | Skip -> acc

let rec map_exprs f stmts = List.map (map_expr_stmt f) stmts

and map_expr_stmt f = function
  | Assign (x, e) -> Assign (x, f e)
  | Assign_idx (x, i, e) -> Assign_idx (x, f i, f e)
  | Signal_assign (s, e) -> Signal_assign (s, f e)
  | If (branches, els) ->
    let branches = List.map (fun (c, body) -> (f c, map_exprs f body)) branches in
    If (branches, map_exprs f els)
  | While (c, body) -> While (f c, map_exprs f body)
  | For (i, lo, hi, body) -> For (i, f lo, f hi, map_exprs f body)
  | Wait_until c -> Wait_until (f c)
  | Call (p, args) ->
    let args =
      List.map (function Arg_expr e -> Arg_expr (f e) | Arg_var x -> Arg_var x) args
    in
    Call (p, args)
  | Emit (tag, e) -> Emit (tag, f e)
  | Skip -> Skip

let rec map_stmts f stmts = List.concat_map (map_stmt f) stmts

and map_stmt f s =
  let s =
    match s with
    | If (branches, els) ->
      If
        ( List.map (fun (c, body) -> (c, map_stmts f body)) branches,
          map_stmts f els )
    | While (c, body) -> While (c, map_stmts f body)
    | For (i, lo, hi, body) -> For (i, lo, hi, map_stmts f body)
    | Assign _ | Assign_idx _ | Signal_assign _ | Wait_until _ | Call _
    | Emit _ | Skip -> s
  in
  f s

let dedup names =
  let rec go seen = function
    | [] -> []
    | x :: rest ->
      if Names.Set.mem x seen then go seen rest
      else x :: go (Names.Set.add x seen) rest
  in
  go Names.Set.empty names

(* One walk over every expression, keeping each name at its first
   occurrence: the order of {!Expr.refs} per expression, and across
   expressions the order of [fold_exprs]. *)
let reads stmts =
  let seen = ref Names.Set.empty and acc = ref [] in
  let note x =
    if not (Names.Set.mem x !seen) then begin
      seen := Names.Set.add x !seen;
      acc := x :: !acc
    end
  in
  let rec walk = function
    | Const _ -> ()
    | Ref x -> note x
    | Index (x, i) ->
      note x;
      walk i
    | Binop (_, a, b) ->
      walk a;
      walk b
    | Unop (_, a) -> walk a
  in
  fold_exprs (fun () e -> walk e) () stmts;
  List.rev !acc

(* The name lists below gather every occurrence in traversal order,
   newest first, and deduplicate once at the end: first occurrence wins,
   exactly as deduplicating every nested body on the way up would. *)
let rec writes_rev acc stmts = List.fold_left write_stmt acc stmts

and write_stmt acc = function
  | Assign (x, _) | Assign_idx (x, _, _) -> x :: acc
  | If (branches, els) ->
    writes_rev
      (List.fold_left (fun acc (_, body) -> writes_rev acc body) acc branches)
      els
  | While (_, body) -> writes_rev acc body
  | For (i, _, _, body) -> writes_rev (i :: acc) body
  | Call (_, args) ->
    List.fold_left
      (fun acc -> function Arg_var x -> x :: acc | Arg_expr _ -> acc)
      acc args
  | Signal_assign _ | Wait_until _ | Emit _ | Skip -> acc

let writes stmts = dedup (List.rev (writes_rev [] stmts))

let rec exists_access f stmts = List.exists (access_stmt f) stmts

and access_stmt f = function
  | Assign (x, e) -> f x || Expr.exists_ref f e
  | Assign_idx (x, i, e) -> f x || Expr.exists_ref f i || Expr.exists_ref f e
  | Signal_assign (_, e) | Wait_until e | Emit (_, e) -> Expr.exists_ref f e
  | If (branches, els) ->
    List.exists
      (fun (c, body) -> Expr.exists_ref f c || exists_access f body)
      branches
    || exists_access f els
  | While (c, body) -> Expr.exists_ref f c || exists_access f body
  | For (i, lo, hi, body) ->
    f i || Expr.exists_ref f lo || Expr.exists_ref f hi || exists_access f body
  | Call (_, args) ->
    List.exists
      (function Arg_expr e -> Expr.exists_ref f e | Arg_var x -> f x)
      args
  | Skip -> false

let rec signal_writes_rev acc stmts = List.fold_left signal_write_stmt acc stmts

and signal_write_stmt acc = function
  | Signal_assign (s, _) -> s :: acc
  | If (branches, els) ->
    signal_writes_rev
      (List.fold_left
         (fun acc (_, body) -> signal_writes_rev acc body)
         acc branches)
      els
  | While (_, body) | For (_, _, _, body) -> signal_writes_rev acc body
  | Assign _ | Assign_idx _ | Wait_until _ | Call _ | Emit _ | Skip -> acc

let signal_writes stmts = dedup (List.rev (signal_writes_rev [] stmts))

let rec calls_rev acc stmts = List.fold_left call_stmt acc stmts

and call_stmt acc = function
  | Call (p, _) -> p :: acc
  | If (branches, els) ->
    calls_rev
      (List.fold_left (fun acc (_, body) -> calls_rev acc body) acc branches)
      els
  | While (_, body) | For (_, _, _, body) -> calls_rev acc body
  | Assign _ | Assign_idx _ | Signal_assign _ | Wait_until _ | Emit _ | Skip ->
    acc

let calls stmts = dedup (List.rev (calls_rev [] stmts))

let rec rename_refs f stmts = List.map (rename_stmt f) stmts

and rename_stmt f = function
  | Assign (x, e) -> Assign (f x, Expr.rename f e)
  | Assign_idx (x, i, e) -> Assign_idx (f x, Expr.rename f i, Expr.rename f e)
  | Signal_assign (s, e) -> Signal_assign (f s, Expr.rename f e)
  | If (branches, els) ->
    If
      ( List.map (fun (c, body) -> (Expr.rename f c, rename_refs f body)) branches,
        rename_refs f els )
  | While (c, body) -> While (Expr.rename f c, rename_refs f body)
  | For (i, lo, hi, body) ->
    For (f i, Expr.rename f lo, Expr.rename f hi, rename_refs f body)
  | Wait_until c -> Wait_until (Expr.rename f c)
  | Call (p, args) ->
    let rename_arg = function
      | Arg_expr e -> Arg_expr (Expr.rename f e)
      | Arg_var x -> Arg_var (f x)
    in
    Call (p, List.map rename_arg args)
  | Emit (tag, e) -> Emit (tag, Expr.rename f e)
  | Skip -> Skip

let rec count stmts = List.fold_left (fun acc s -> acc + count_stmt s) 0 stmts

and count_stmt = function
  | If (branches, els) ->
    1
    + List.fold_left (fun acc (_, body) -> acc + count body) 0 branches
    + count els
  | While (_, body) -> 1 + count body
  | For (_, _, _, body) -> 1 + count body
  | Assign _ | Assign_idx _ | Signal_assign _ | Wait_until _ | Call _ | Emit _
  | Skip -> 1

let uses_name x stmts =
  List.mem x (reads stmts) || List.mem x (writes stmts)
  || List.mem x (signal_writes stmts)
