open Agraph

type t = {
  n_parts : int;
  objs : Partition.obj array;
  behaviors : int array;
  edges : Access_graph.data_edge array;
  e_behavior : int array;
  e_variable : int array;
  e_bits : int array;
  vars : string array;
  var_obj : int array;
  users : string array array;
  user_objs : int array array;
}

let make (g : Access_graph.t) part =
  let assigned = Array.of_list (Partition.objects part) in
  let objs = Array.map fst assigned in
  let number = Hashtbl.create (2 * Array.length objs) in
  Array.iteri (fun i o -> Hashtbl.replace number o i) objs;
  let num o =
    Option.value (Hashtbl.find_opt number o) ~default:(Array.length objs)
  in
  let behavior b = num (Partition.Obj_behavior b) in
  let edges = Array.of_list g.Access_graph.g_data in
  let by_var = Hashtbl.create 32 in
  Array.iter
    (fun (e : Access_graph.data_edge) ->
      let v = e.Access_graph.de_variable in
      let bs = Option.value (Hashtbl.find_opt by_var v) ~default:[] in
      Hashtbl.replace by_var v (e.Access_graph.de_behavior :: bs))
    edges;
  let vars = Array.of_list g.Access_graph.g_variables in
  let users =
    Array.map
      (fun v ->
        match Hashtbl.find_opt by_var v with
        | None -> [||]
        | Some bs -> Array.of_list (List.sort_uniq String.compare bs))
      vars
  in
  let behaviors =
    List.filter_map
      (fun i ->
        match objs.(i) with
        | Partition.Obj_behavior _ -> Some i
        | Partition.Obj_variable _ -> None)
      (List.init (Array.length objs) Fun.id)
  in
  ( {
      n_parts = Partition.n_parts part;
      objs;
      behaviors = Array.of_list behaviors;
      edges;
      e_behavior = Array.map (fun e -> behavior e.Access_graph.de_behavior) edges;
      e_variable =
        Array.map
          (fun e -> num (Partition.Obj_variable e.Access_graph.de_variable))
          edges;
      e_bits = Array.map Access_graph.edge_bits edges;
      vars;
      var_obj = Array.map (fun v -> num (Partition.Obj_variable v)) vars;
      users;
      user_objs = Array.map (Array.map behavior) users;
    },
    Array.append (Array.map snd assigned) [| -1 |] )

let to_partition t a =
  Partition.make ~n_parts:t.n_parts
    (Array.to_list (Array.mapi (fun i o -> (o, a.(i))) t.objs))
