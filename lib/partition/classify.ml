type klass = Local | Global

type report = {
  locals : string list;
  globals : string list;
  unaccessed : string list;
}

let unassigned what name =
  invalid_arg (Printf.sprintf "Classify: %s %s unassigned" what name)

(* A variable is local when every user shares its home; the users are
   checked in name order and an unassigned one raises only if reached. *)
let is_local (idx : Index.t) a ~home i =
  let objs = idx.Index.user_objs.(i) in
  let k = ref 0 and local = ref true in
  while !local && !k < Array.length objs do
    let p = a.(objs.(!k)) in
    if p < 0 then unassigned "behavior" idx.Index.users.(i).(!k);
    local := p = home;
    incr k
  done;
  !local

let home (idx : Index.t) a i =
  let h = a.(idx.Index.var_obj.(i)) in
  if h < 0 then unassigned "variable" idx.Index.vars.(i);
  h

let klass_at idx a i =
  if Array.length idx.Index.user_objs.(i) = 0 then None
  else if is_local idx a ~home:(home idx a i) i then Some Local
  else Some Global

let counts_at (idx : Index.t) a =
  let locals = ref 0 and globals = ref 0 in
  for i = 0 to Array.length idx.Index.vars - 1 do
    match klass_at idx a i with
    | Some Local -> incr locals
    | Some Global -> incr globals
    | None -> ()
  done;
  (!locals, !globals)

let report g part =
  let idx, a = Index.make g part in
  let step (locals, globals, unaccessed) i =
    let v = idx.Index.vars.(i) in
    match klass_at idx a i with
    | None -> (locals, globals, v :: unaccessed)
    | Some Local -> (v :: locals, globals, unaccessed)
    | Some Global -> (locals, v :: globals, unaccessed)
  in
  let locals, globals, unaccessed =
    List.fold_left step ([], [], [])
      (List.init (Array.length idx.Index.vars) Fun.id)
  in
  {
    locals = List.rev locals;
    globals = List.rev globals;
    unaccessed = List.rev unaccessed;
  }

(* A variable the graph does not declare has no users in it. *)
let classify g part v =
  let idx, a = Index.make g part in
  match Partition.part_of_variable part v with
  | None -> unassigned "variable" v
  | Some home -> (
    match Array.find_index (String.equal v) idx.Index.vars with
    | Some i when not (is_local idx a ~home i) -> Global
    | Some _ | None -> Local)

let ratio r =
  float_of_int (List.length r.locals)
  /. float_of_int (max 1 (List.length r.globals))
