(** Kernighan–Lin / Fiduccia–Mattheyses style improvement: repeated passes
    of single-object moves.  Within a pass every object moves at most once
    (it is then locked); the pass keeps the best prefix of moves, and
    passes repeat until no improvement is found.  Moves are scored in
    place, in the working array of a partition of the same graph. *)

(* The cheapest move of an unlocked object of [work] to another part:
   objects in number order, parts ascending, the first of equal costs. *)
let best_move (work : Partition.t) locked =
  let a = work.Partition.parts in
  let best = ref None in
  for o = 0 to Array.length a - 1 do
    if not locked.(o) then begin
      let cur = a.(o) in
      for i = 0 to work.Partition.n_parts - 1 do
        if i <> cur then begin
          a.(o) <- i;
          let c = Cost.total work in
          match !best with
          | Some (bc, _, _) when not (c < bc) -> ()
          | Some _ | None -> best := Some (c, o, i)
        end
      done;
      a.(o) <- cur
    end
  done;
  !best

(* One KL pass from [a] (cost [cost]): greedily apply best moves (even
   cost-increasing ones, locking each moved object), remember the best
   intermediate state, and return it with its cost. *)
let max_moves = 64

let one_pass part a cost =
  let work = Partition.with_parts part (Array.copy a) in
  let cur = work.Partition.parts in
  let locked = Array.make (Array.length a) false in
  let rec go best best_cost moves =
    if moves >= max_moves then (best, best_cost)
    else
      match best_move work locked with
      | None -> (best, best_cost)
      | Some (c, o, i) ->
        cur.(o) <- i;
        locked.(o) <- true;
        if c < best_cost then go (Array.copy cur) c (moves + 1)
        else go best best_cost (moves + 1)
  in
  go a cost 0

let max_passes = 8

let run part =
  let rec go a cost pass =
    if pass >= max_passes then a
    else
      let a', cost' = one_pass part a cost in
      if cost' < cost then go a' cost' (pass + 1) else a
  in
  Partition.with_parts part
    (go part.Partition.parts (Cost.total part) 0)

(** Convenience: greedy construction followed by KL refinement. *)
let run_from_scratch g ~n_parts = run (Greedy.run g ~n_parts)
