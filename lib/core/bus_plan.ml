open Agraph

type memory_id =
  | Gmem
  | Gmem_part of int
  | Lmem of int

type bus_role =
  | Shared_global
  | Local of int
  | Dedicated of { master : int; mem : int }
  | Chain_request of int
  | Chain_inter

type bus = {
  bus_role : bus_role;
  bus_edges : Access_graph.data_edge list;
}

type t = {
  bp_model : Model.t;
  bp_parts : int;
  bp_buses : bus list;
  bp_memory_of : (string * memory_id) list;
  bp_memory_index : memory_id Spec.Names.Map.t;
}

let equal_role (a : bus_role) (b : bus_role) = a = b

let role_label = function
  | Shared_global -> "global"
  | Local i -> Printf.sprintf "local%d" i
  | Dedicated { master; mem } -> Printf.sprintf "ded%d_%d" master mem
  | Chain_request i -> Printf.sprintf "req%d" i
  | Chain_inter -> "inter"

let home part v =
  match Partitioning.Partition.part_of_variable part v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Bus_plan: variable %s unassigned" v)

let bpart part b =
  match Partitioning.Partition.part_of_behavior part b with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Bus_plan: behavior %s unassigned" b)

(* Memory assignment of every variable under a model.  Unaccessed
   variables are treated as local.  [extra_readers] declares additional
   (variable, partition) readers the refined structure introduces — TOC
   conditions are re-evaluated by the home partition of their sequential
   composition, which can differ from the arm child the access graph
   charges (see {!Refiner}); a variable with a reader outside its home
   partition must live in a globally reachable memory. *)
let memory_assignment ?(extra_readers = []) model g part =
  let report = Partitioning.Classify.report part in
  let globals = Spec.Names.Set.of_list report.Partitioning.Classify.globals in
  let readers =
    List.fold_left
      (fun m (v, reader) ->
        let rs = Option.value (Spec.Names.Map.find_opt v m) ~default:[] in
        Spec.Names.Map.add v (reader :: rs) m)
      Spec.Names.Map.empty extra_readers
  in
  let is_global v =
    Spec.Names.Set.mem v globals
    ||
    match Spec.Names.Map.find_opt v readers with
    | None -> false
    | Some rs -> List.exists (fun reader -> reader <> home part v) rs
  in
  List.map
    (fun v ->
      let mem =
        match model with
        | Model.Model1 -> Gmem
        | Model.Model2 -> if is_global v then Gmem else Lmem (home part v)
        | Model.Model3 ->
          if is_global v then Gmem_part (home part v) else Lmem (home part v)
        | Model.Model4 -> Lmem (home part v)
      in
      (v, mem))
    g.Access_graph.g_variables

(* Bus skeletons per model, in the paper's figure order for the layout of
   Figure 9: partition-0 local bus, then global/dedicated buses, then the
   remaining local buses; Model4 interleaves its chain between the
   locals. *)
let bus_roles model p =
  let locals = List.init p (fun i -> Local i) in
  match model with
  | Model.Model1 -> [ Shared_global ]
  | Model.Model2 ->
    begin match locals with
    | first :: rest -> (first :: Shared_global :: rest)
    | [] -> [ Shared_global ]
    end
  | Model.Model3 ->
    let dedicated =
      List.concat_map
        (fun master ->
          let mems =
            master :: List.filter (fun g -> g <> master) (List.init p Fun.id)
          in
          List.map (fun mem -> Dedicated { master; mem }) mems)
        (List.init p Fun.id)
    in
    begin match locals with
    | first :: rest -> (first :: dedicated) @ rest
    | [] -> dedicated
    end
  | Model.Model4 ->
    let chain =
      List.init p (fun i -> Chain_request i) @ [ Chain_inter ]
    in
    begin match locals with
    | first :: rest -> (first :: chain) @ rest
    | [] -> chain
    end

(* The buses one data edge traverses. *)
let edge_buses part memory_of (e : Access_graph.data_edge) =
  let master = bpart part e.Access_graph.de_behavior in
  match Spec.Names.Map.find e.Access_graph.de_variable memory_of with
  | Gmem -> [ Shared_global ]
  | Gmem_part mem -> [ Dedicated { master; mem } ]
  | Lmem h ->
    if master = h then [ Local h ]
    else
      (* Model4 message passing: the transfer crosses the requester's
         request bus, the inter-interface bus and the home request bus. *)
      [ Chain_request master; Chain_inter; Chain_request h ]

let build ?extra_readers model g part =
  begin match Partitioning.Partition.complete_for g part with
  | Ok () -> ()
  | Error msgs -> invalid_arg ("Bus_plan.build: " ^ String.concat "; " msgs)
  end;
  let p = Partitioning.Partition.n_parts part in
  let memory_of = memory_assignment ?extra_readers model g part in
  let index = Spec.Names.bind memory_of Spec.Names.Map.empty in
  (* One pass over the edges, each filed under every bus it traverses
     (an edge's buses are distinct), newest first. *)
  let on_bus = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun role ->
          let edges = Option.value (Hashtbl.find_opt on_bus role) ~default:[] in
          Hashtbl.replace on_bus role (e :: edges))
        (edge_buses part index e))
    g.Access_graph.g_data;
  let buses =
    List.map
      (fun role ->
        let edges = Option.value (Hashtbl.find_opt on_bus role) ~default:[] in
        { bus_role = role; bus_edges = List.rev edges })
      (bus_roles model p)
  in
  {
    bp_model = model;
    bp_parts = p;
    bp_buses = buses;
    bp_memory_of = memory_of;
    bp_memory_index = index;
  }

let memory_of t v = Spec.Names.Map.find v t.bp_memory_index

let vars_of_memory t mem =
  List.filter_map
    (fun (v, m) -> if m = mem then Some v else None)
    t.bp_memory_of

let memories t =
  let rec dedup seen = function
    | [] -> []
    | (_, m) :: rest ->
      if List.mem m seen then dedup seen rest else m :: dedup (m :: seen) rest
  in
  dedup [] t.bp_memory_of

let bus_of_access t ~master ~variable =
  match memory_of t variable with
  | Gmem -> Shared_global
  | Gmem_part mem -> Dedicated { master; mem }
  | Lmem h -> if master = h then Local h else Chain_request master
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Bus_plan.bus_of_access: unknown variable %s" variable)
