type klass = Local | Global

type report = {
  locals : string list;
  globals : string list;
  unaccessed : string list;
}

let home_of part v =
  match Partition.part_of_variable part v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Classify: variable %s unassigned" v)

let part_of_behavior part b =
  match Partition.part_of_behavior part b with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Classify: behavior %s unassigned" b)

let classify g part v =
  let home = home_of part v in
  let users = Agraph.Access_graph.behaviors_accessing g v in
  if List.for_all (fun b -> part_of_behavior part b = home) users then Local
  else Global

(* One pass over the data edges gives every variable its accessing
   behaviors; [classify] per variable would rescan them all. *)
let report g part =
  let users =
    List.fold_left
      (fun m (e : Agraph.Access_graph.data_edge) ->
        let v = e.Agraph.Access_graph.de_variable in
        let bs = Option.value (Spec.Names.Map.find_opt v m) ~default:[] in
        Spec.Names.Map.add v (e.Agraph.Access_graph.de_behavior :: bs) m)
      Spec.Names.Map.empty g.Agraph.Access_graph.g_data
  in
  let step (locals, globals, unaccessed) v =
    match Spec.Names.Map.find_opt v users with
    | None -> (locals, globals, v :: unaccessed)
    | Some bs ->
      let home = home_of part v in
      let bs = List.sort_uniq String.compare bs in
      if List.for_all (fun b -> part_of_behavior part b = home) bs then
        (v :: locals, globals, unaccessed)
      else (locals, v :: globals, unaccessed)
  in
  let locals, globals, unaccessed =
    List.fold_left step ([], [], []) g.Agraph.Access_graph.g_variables
  in
  {
    locals = List.rev locals;
    globals = List.rev globals;
    unaccessed = List.rev unaccessed;
  }

let ratio r =
  float_of_int (List.length r.locals)
  /. float_of_int (max 1 (List.length r.globals))
