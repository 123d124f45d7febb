open Ast

let leaf ?(vars = []) name stmts = { b_name = name; b_vars = vars; b_body = Leaf stmts }
let seq name arms = { b_name = name; b_vars = []; b_body = Seq arms }
let par ?(vars = []) name children =
  { b_name = name; b_vars = vars; b_body = Par children }

let arm ?(transitions = []) b = { a_behavior = b; a_transitions = transitions }

let is_leaf b = match b.b_body with Leaf _ -> true | Seq _ | Par _ -> false

let children b =
  match b.b_body with
  | Leaf _ -> []
  | Seq arms -> List.map (fun a -> a.a_behavior) arms
  | Par bs -> bs

let rec fold f acc b =
  let acc = f acc b in
  List.fold_left (fold f) acc (children b)

let names b = List.rev (fold (fun acc b -> b.b_name :: acc) [] b)

let find name b =
  fold
    (fun acc b ->
      match acc with
      | Some _ -> acc
      | None -> if String.equal b.b_name name then Some b else None)
    None b

let parent_of name b =
  fold
    (fun acc p ->
      match acc with
      | Some _ -> acc
      | None ->
        if List.exists (fun c -> String.equal c.b_name name) (children p) then
          Some p
        else None)
    None b

let rec map f b =
  let body =
    match b.b_body with
    | Leaf stmts -> Leaf stmts
    | Seq arms ->
      Seq (List.map (fun a -> { a with a_behavior = map f a.a_behavior }) arms)
    | Par bs -> Par (List.map (map f) bs)
  in
  f { b with b_body = body }

let map_leaf_stmts f b =
  map
    (fun b ->
      match b.b_body with
      | Leaf stmts -> { b with b_body = Leaf (f stmts) }
      | Seq _ | Par _ -> b)
    b

let replace name b' tree =
  let found = ref false in
  let tree =
    map
      (fun b ->
        if String.equal b.b_name name then begin
          found := true;
          b'
        end
        else b)
      tree
  in
  if !found then tree else raise Not_found

let transition_conds b =
  let conds_of acc b =
    match b.b_body with
    | Seq arms ->
      List.fold_left
        (fun acc a ->
          List.fold_left
            (fun acc t ->
              match t.t_cond with
              | Some c -> (b.b_name, c) :: acc
              | None -> acc)
            acc a.a_transitions)
        acc arms
    | Leaf _ | Par _ -> acc
  in
  List.rev (fold conds_of [] b)

let all_var_decls b =
  List.rev
    (fold
       (fun acc b ->
         List.fold_left (fun acc v -> (b.b_name, v) :: acc) acc b.b_vars)
       [] b)

let behavior_count b = fold (fun acc _ -> acc + 1) 0 b

let stmt_count b =
  fold
    (fun acc b ->
      match b.b_body with
      | Leaf stmts -> acc + Stmt.count stmts
      | Seq _ | Par _ -> acc)
    0 b

let rec depth b =
  match children b with
  | [] -> 1
  | cs -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 cs
