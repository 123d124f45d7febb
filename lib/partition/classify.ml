type report = {
  locals : string list;
  globals : string list;
  unaccessed : string list;
}

type klass = Local | Global | Unaccessed

(* A variable is local when every user shares its home. *)
let klass (p : Partition.t) i =
  let a = p.Partition.parts and users = p.Partition.user_objs.(i) in
  if Array.length users = 0 then Unaccessed
  else begin
    let home = a.(p.Partition.var_obj.(i)) in
    let k = ref 0 in
    while !k < Array.length users && a.(users.(!k)) = home do
      incr k
    done;
    if !k = Array.length users then Local else Global
  end

let counts (p : Partition.t) =
  let locals = ref 0 and globals = ref 0 in
  for i = 0 to Array.length p.Partition.vars - 1 do
    match klass p i with
    | Local -> incr locals
    | Global -> incr globals
    | Unaccessed -> ()
  done;
  (!locals, !globals)

let report (p : Partition.t) =
  let step (locals, globals, unaccessed) i =
    let v = p.Partition.vars.(i) in
    match klass p i with
    | Unaccessed -> (locals, globals, v :: unaccessed)
    | Local -> (v :: locals, globals, unaccessed)
    | Global -> (locals, v :: globals, unaccessed)
  in
  let locals, globals, unaccessed =
    List.fold_left step ([], [], [])
      (List.init (Array.length p.Partition.vars) Fun.id)
  in
  {
    locals = List.rev locals;
    globals = List.rev globals;
    unaccessed = List.rev unaccessed;
  }

let ratio r =
  float_of_int (List.length r.locals)
  /. float_of_int (max 1 (List.length r.globals))
