(** Constructive greedy partitioner: objects are placed one at a time, in
    decreasing order of connectivity, each on the partition that minimizes
    the traffic to already-placed neighbours while keeping loads even. *)

open Agraph

let edge_endpoints (e : Access_graph.data_edge) =
  ( Partition.Obj_behavior e.Access_graph.de_behavior,
    Partition.Obj_variable e.Access_graph.de_variable )

(* Adjacency: for every object, its (neighbour, bits) pairs. *)
let adjacency (g : Access_graph.t) =
  let tbl = Hashtbl.create 64 in
  let add o n bits =
    let prev = match Hashtbl.find_opt tbl o with Some l -> l | None -> [] in
    Hashtbl.replace tbl o ((n, bits) :: prev)
  in
  List.iter
    (fun e ->
      let b, v = edge_endpoints e in
      let bits = Access_graph.edge_bits e in
      add b v bits;
      add v b bits)
    g.Access_graph.g_data;
  tbl

let connectivity tbl o =
  match Hashtbl.find_opt tbl o with
  | Some l -> List.fold_left (fun acc (_, bits) -> acc + bits) 0 l
  | None -> 0

let balance_weight = 0.25

let run (g : Access_graph.t) ~n_parts =
  let adj = adjacency g in
  let objs =
    List.map (fun b -> Partition.Obj_behavior b) g.Access_graph.g_objects
    @ List.map (fun v -> Partition.Obj_variable v) g.Access_graph.g_variables
  in
  let order =
    List.stable_sort
      (fun a b -> compare (connectivity adj b) (connectivity adj a))
      objs
  in
  let placed = Hashtbl.create 64 in
  let loads = Array.make n_parts 0.0 in
  let place o =
    let neighbours =
      match Hashtbl.find_opt adj o with Some l -> l | None -> []
    in
    let score i =
      (* Traffic to neighbours already placed elsewhere... *)
      let cross =
        List.fold_left
          (fun acc (n, bits) ->
            match Hashtbl.find_opt placed n with
            | Some j when j <> i -> acc + bits
            | Some _ | None -> acc)
          0 neighbours
      in
      float_of_int cross +. (balance_weight *. loads.(i))
    in
    let best = ref 0 and best_score = ref (score 0) in
    for i = 1 to n_parts - 1 do
      let s = score i in
      if s < !best_score then begin
        best := i;
        best_score := s
      end
    done;
    Hashtbl.replace placed o !best;
    loads.(!best) <- loads.(!best) +. float_of_int (connectivity adj o)
  in
  List.iter place order;
  Partition.of_graph g ~n_parts (fun o ->
      match Hashtbl.find_opt placed o with Some i -> i | None -> 0)
