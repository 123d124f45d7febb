(* Per signal, the delta cycle of every committed update, ascending, in
   the first [c_n] entries of a growable array: one word per commit. *)
type commits = { mutable c_n : int; mutable c_deltas : int array }
type t = (string, commits) Hashtbl.t

let create () : t = Hashtbl.create 64

let record (log : t) name delta =
  match Hashtbl.find log name with
  | c ->
    if c.c_n = Array.length c.c_deltas then begin
      let grown = Array.make (2 * c.c_n) 0 in
      Array.blit c.c_deltas 0 grown 0 c.c_n;
      c.c_deltas <- grown
    end;
    c.c_deltas.(c.c_n) <- delta;
    c.c_n <- c.c_n + 1
  | exception Not_found ->
    Hashtbl.add log name { c_n = 1; c_deltas = Array.make 8 delta }

let nth (log : t) name k =
  match Hashtbl.find_opt log name with
  | Some c when k >= 1 && k <= c.c_n -> Some c.c_deltas.(k - 1)
  | Some _ | None -> None

let count_before (log : t) name q =
  match Hashtbl.find_opt log name with
  | None -> 0
  | Some c ->
    let n = ref 0 in
    while !n < c.c_n && c.c_deltas.(!n) < q do incr n done;
    !n

let counts (log : t) =
  let t = Hashtbl.create (Hashtbl.length log) in
  Hashtbl.iter (fun name c -> Hashtbl.replace t name c.c_n) log;
  t

let append (log : t) ~(from : t) =
  Hashtbl.iter
    (fun name c ->
      if Hashtbl.mem log name then
        for i = 0 to c.c_n - 1 do
          record log name c.c_deltas.(i)
        done
      else
        Hashtbl.add log name
          { c_n = c.c_n; c_deltas = Array.sub c.c_deltas 0 c.c_n })
    from

let to_list (log : t) =
  Hashtbl.fold
    (fun name c acc -> (name, Array.to_list (Array.sub c.c_deltas 0 c.c_n)) :: acc)
    log []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
