open Spec

type data_dir = Dread | Dwrite

type control_edge = {
  ce_src : string;
  ce_dst : string;
  ce_cond : Ast.expr option;
}

type data_edge = {
  de_behavior : string;
  de_variable : string;
  de_dir : data_dir;
  de_count : int;
  de_bits : int;
}

type t = {
  g_objects : string list;
  g_variables : string list;
  g_control : control_edge list;
  g_data : data_edge list;
}

let default_objects (p : Ast.program) =
  List.rev
    (Behavior.fold
       (fun acc b -> if Behavior.is_leaf b then b.Ast.b_name :: acc else acc)
       [] p.Ast.p_top)

let subtree_names p name =
  match Program.lookup_behavior p name with
  | None -> invalid_arg (Printf.sprintf "unknown object behavior %s" name)
  | Some b -> Behavior.names b

let check_objects p objects =
  let subtrees = List.map (fun o -> (o, subtree_names p o)) objects in
  List.iter
    (fun (o, names) ->
      List.iter
        (fun (o', names') ->
          if (not (String.equal o o')) && List.mem o' names then
            invalid_arg
              (Printf.sprintf "object %s is nested inside object %s" o' o)
          else ignore names')
        subtrees)
    subtrees

let control_edges_of (p : Ast.program) =
  let edges_of acc b =
    match b.Ast.b_body with
    | Ast.Seq arms ->
      let arm_names = List.map (fun a -> a.Ast.a_behavior.Ast.b_name) arms in
      let explicit =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun t ->
                match t.Ast.t_target with
                | Ast.Goto dst ->
                  Some
                    {
                      ce_src = a.Ast.a_behavior.Ast.b_name;
                      ce_dst = dst;
                      ce_cond = t.Ast.t_cond;
                    }
                | Ast.Complete -> None)
              a.Ast.a_transitions)
          arms
      in
      (* Fall-through arcs for arms with no explicit transitions. *)
      let rec fallthrough = function
        | a :: (next :: _ as rest) ->
          let arc =
            if a.Ast.a_transitions = [] then
              [
                {
                  ce_src = a.Ast.a_behavior.Ast.b_name;
                  ce_dst = next.Ast.a_behavior.Ast.b_name;
                  ce_cond = None;
                };
              ]
            else []
          in
          arc @ fallthrough rest
        | [ _ ] | [] -> []
      in
      ignore arm_names;
      acc @ explicit @ fallthrough arms
    | Ast.Leaf _ | Ast.Par _ -> acc
  in
  Behavior.fold edges_of [] p.Ast.p_top

let of_program ?while_iterations ?objects (p : Ast.program) =
  let objects =
    match objects with Some o -> o | None -> default_objects p
  in
  check_objects p objects;
  let per_behavior = Analysis.behavior_accesses ?while_iterations p in
  let var_width x =
    match Program.lookup_var p x with
    | Some v -> Ast.ty_width v.Ast.v_ty
    | None -> 0
  in
  let data =
    List.concat_map
      (fun obj ->
        let names = subtree_names p obj in
        let raw =
          List.concat_map
            (fun n ->
              match List.assoc_opt n per_behavior with
              | Some accs -> accs
              | None -> [])
            names
        in
        (* Aggregate the subtree accesses per (variable, direction). *)
        let tbl = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun (a : Analysis.access) ->
            let dir =
              match a.Analysis.ac_kind with
              | Analysis.Read -> Dread
              | Analysis.Write -> Dwrite
            in
            let key = (a.Analysis.ac_var, dir) in
            if not (Hashtbl.mem tbl key) then order := key :: !order;
            let prev =
              match Hashtbl.find_opt tbl key with Some n -> n | None -> 0
            in
            Hashtbl.replace tbl key (prev + a.Analysis.ac_count))
          raw;
        List.rev_map
          (fun (v, dir) ->
            {
              de_behavior = obj;
              de_variable = v;
              de_dir = dir;
              de_count = Hashtbl.find tbl (v, dir);
              de_bits = var_width v;
            })
          !order)
      objects
  in
  {
    g_objects = objects;
    g_variables = Program.var_names p;
    g_control = control_edges_of p;
    g_data = data;
  }

let data_edges_of_var g v =
  List.filter (fun e -> String.equal e.de_variable v) g.g_data

let behaviors_accessing g v =
  List.sort_uniq String.compare
    (List.map (fun e -> e.de_behavior) (data_edges_of_var g v))

let channel_count g = List.length g.g_data
let edge_bits e = e.de_count * e.de_bits

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph access_graph {\n";
  List.iter
    (fun o -> Buffer.add_string buf (Printf.sprintf "  %S [shape=box];\n" o))
    g.g_objects;
  List.iter
    (fun v ->
      Buffer.add_string buf (Printf.sprintf "  %S [shape=ellipse];\n" v))
    g.g_variables;
  List.iter
    (fun e ->
      let label =
        match e.ce_cond with
        | Some c -> Printf.sprintf " [label=%S, style=dashed]" (Expr.to_string c)
        | None -> " [style=dashed]"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S%s;\n" e.ce_src e.ce_dst label))
    g.g_control;
  List.iter
    (fun e ->
      let src, dst =
        match e.de_dir with
        | Dread -> (e.de_variable, e.de_behavior)
        | Dwrite -> (e.de_behavior, e.de_variable)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [label=\"%dx%db\"];\n" src dst e.de_count
           e.de_bits))
    g.g_data;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
