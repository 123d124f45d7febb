(** Hierarchical closeness clustering: objects are merged bottom-up by
    affinity (bits exchanged), until as many clusters remain as there are
    partitions; clusters are then assigned to partitions by decreasing
    size. *)

open Agraph

(* Affinity between two objects: bits on data edges connecting them. *)
let affinity_table (g : Access_graph.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Access_graph.data_edge) ->
      let b = Partition.Obj_behavior e.Access_graph.de_behavior in
      let v = Partition.Obj_variable e.Access_graph.de_variable in
      let key = if Partition.compare_obj b v <= 0 then (b, v) else (v, b) in
      let prev = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0 in
      Hashtbl.replace tbl key (prev + Access_graph.edge_bits e))
    g.Access_graph.g_data;
  tbl

type cluster = { members : Partition.obj list }

let cluster_affinity tbl c1 c2 =
  List.fold_left
    (fun acc o1 ->
      List.fold_left
        (fun acc o2 ->
          let key =
            if Partition.compare_obj o1 o2 <= 0 then (o1, o2) else (o2, o1)
          in
          match Hashtbl.find_opt tbl key with
          | Some bits -> acc + bits
          | None -> acc)
        acc c2.members)
    0 c1.members

let run (g : Access_graph.t) ~n_parts =
  let tbl = affinity_table g in
  let initial =
    List.map
      (fun b -> { members = [ Partition.Obj_behavior b ] })
      g.Access_graph.g_objects
    @ List.map
        (fun v -> { members = [ Partition.Obj_variable v ] })
        g.Access_graph.g_variables
  in
  (* Merge the closest pair until n_parts clusters remain (or no pair has
     positive affinity, in which case remaining clusters are just kept). *)
  let rec merge clusters =
    if List.length clusters <= n_parts then clusters
    else begin
      let best = ref None in
      let rec scan = function
        | [] | [ _ ] -> ()
        | c1 :: rest ->
          List.iter
            (fun c2 ->
              let a = cluster_affinity tbl c1 c2 in
              match !best with
              | Some (ba, _, _) when ba >= a -> ()
              | _ -> best := Some (a, c1, c2))
            rest;
          scan rest
      in
      scan clusters;
      match !best with
      | None -> clusters
      | Some (_, c1, c2) ->
        let merged = { members = c1.members @ c2.members } in
        let clusters =
          List.filter (fun c -> c != c1 && c != c2) clusters
        in
        merge (merged :: clusters)
    end
  in
  let clusters = merge initial in
  (* Largest clusters first, partitions round-robin so overflow clusters
     still land somewhere deterministic. *)
  let sorted =
    List.stable_sort
      (fun a b -> compare (List.length b.members) (List.length a.members))
      clusters
  in
  let placement = Hashtbl.create 64 in
  List.iteri
    (fun i c ->
      List.iter
        (fun o -> Hashtbl.replace placement o (i mod n_parts))
        c.members)
    sorted;
  Partition.of_graph g ~n_parts (fun o ->
      Option.value (Hashtbl.find_opt placement o) ~default:0)
