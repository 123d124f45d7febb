open Agraph

type obj =
  | Obj_behavior of string
  | Obj_variable of string

let obj_name = function Obj_behavior n -> n | Obj_variable n -> n

let compare_obj a b =
  match (a, b) with
  | Obj_behavior x, Obj_behavior y -> String.compare x y
  | Obj_variable x, Obj_variable y -> String.compare x y
  | Obj_behavior _, Obj_variable _ -> -1
  | Obj_variable _, Obj_behavior _ -> 1

let pp_obj ppf = function
  | Obj_behavior n -> Format.fprintf ppf "behavior %s" n
  | Obj_variable n -> Format.fprintf ppf "variable %s" n

type t = {
  n_parts : int;
  objs : obj array;
  numbers : (obj, int) Hashtbl.t;
  n_behaviors : int;
  e_behavior : int array;
  e_variable : int array;
  e_bits : int array;
  vars : string array;
  var_obj : int array;
  user_objs : int array array;
  parts : int array;
}

let graph_objects (g : Access_graph.t) =
  List.map (fun b -> Obj_behavior b) g.Access_graph.g_objects
  @ List.map (fun v -> Obj_variable v) g.Access_graph.g_variables

(* The graph's numbering, with no assignment yet.  Behaviors sort before
   variables, so they are the first [n_behaviors] numbers.  A data edge
   names one of the graph's objects and one of its variables
   ({!Access_graph.of_program} draws them from its objects and from the
   program variables its accesses are filtered to), so every edge
   endpoint has a number. *)
let numbering (g : Access_graph.t) ~n_parts =
  if n_parts < 1 then invalid_arg "Partition: n_parts < 1";
  let objs = Array.of_list (List.sort compare_obj (graph_objects g)) in
  let numbers = Hashtbl.create (2 * Array.length objs) in
  Array.iteri
    (fun i o ->
      if Hashtbl.mem numbers o then
        invalid_arg ("Partition: duplicate object " ^ obj_name o);
      Hashtbl.replace numbers o i)
    objs;
  let num o =
    match Hashtbl.find_opt numbers o with
    | Some i -> i
    | None ->
      invalid_arg (Format.asprintf "Partition: data edge names %a" pp_obj o)
  in
  let edges = Array.of_list g.Access_graph.g_data in
  let e_behavior =
    Array.map (fun e -> num (Obj_behavior e.Access_graph.de_behavior)) edges
  in
  let e_variable =
    Array.map (fun e -> num (Obj_variable e.Access_graph.de_variable)) edges
  in
  let users = Array.make (Array.length objs) [] in
  Array.iteri (fun k v -> users.(v) <- e_behavior.(k) :: users.(v)) e_variable;
  let vars = Array.of_list g.Access_graph.g_variables in
  let var_obj = Array.map (fun v -> num (Obj_variable v)) vars in
  {
    n_parts;
    objs;
    numbers;
    n_behaviors = List.length g.Access_graph.g_objects;
    e_behavior;
    e_variable;
    e_bits = Array.map Access_graph.edge_bits edges;
    vars;
    var_obj;
    user_objs =
      Array.map
        (fun v -> Array.of_list (List.sort_uniq compare users.(v)))
        var_obj;
    parts = [||];
  }

let unassigned = List.map (Format.asprintf "unassigned %a" pp_obj)

let make g ~n_parts assocs =
  let t = numbering g ~n_parts in
  let parts = Array.make (Array.length t.objs) (-1) in
  let rec fill = function
    | [] -> Ok ()
    | (o, i) :: rest -> (
      match Hashtbl.find_opt t.numbers o with
      | None -> Error (Format.asprintf "unknown %a" pp_obj o)
      | Some _ when i < 0 || i >= n_parts ->
        Error
          (Printf.sprintf "%s assigned to partition %d of %d" (obj_name o) i
             n_parts)
      | Some k when parts.(k) >= 0 -> Error ("duplicate object " ^ obj_name o)
      | Some k ->
        parts.(k) <- i;
        fill rest)
  in
  match fill assocs with
  | Error _ as e -> e
  | Ok () -> (
    let unset o = parts.(Hashtbl.find t.numbers o) < 0 in
    match List.filter unset (graph_objects g) with
    | [] -> Ok { t with parts }
    | missing -> Error (String.concat "; " (unassigned missing)))

let of_graph g ~n_parts place =
  let assocs = List.map (fun o -> (o, place o)) (graph_objects g) in
  match make g ~n_parts assocs with
  | Ok t -> t
  | Error msg -> invalid_arg ("Partition.of_graph: " ^ msg)

let with_parts t parts = { t with parts }
let n_parts t = t.n_parts

let part_of t o =
  Option.map (fun k -> t.parts.(k)) (Hashtbl.find_opt t.numbers o)

let part_of_behavior t n = part_of t (Obj_behavior n)
let part_of_variable t n = part_of t (Obj_variable n)

let objects t =
  List.init (Array.length t.objs) (fun k -> (t.objs.(k), t.parts.(k)))

let names_in t i name =
  List.filter_map (fun (o, j) -> if j = i then name o else None) (objects t)

let behaviors_in t i =
  names_in t i (function Obj_behavior n -> Some n | Obj_variable _ -> None)

let variables_in t i =
  names_in t i (function Obj_variable n -> Some n | Obj_behavior _ -> None)

let complete_for g t =
  let absent o = not (Hashtbl.mem t.numbers o) in
  match List.filter absent (graph_objects g) with
  | [] -> Ok ()
  | missing -> Error (unassigned missing)

let pp ppf t =
  let parts = List.init t.n_parts (fun i -> i) in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun i ->
      Format.fprintf ppf "P%d: behaviors {%s} variables {%s}@," i
        (String.concat ", " (behaviors_in t i))
        (String.concat ", " (variables_in t i)))
    parts;
  Format.fprintf ppf "@]"
