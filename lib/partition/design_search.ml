(** Search for partitions with a prescribed local/global variable balance —
    how the paper's three experimental designs are characterized
    (Design1: local = global, Design2: local > global, Design3:
    local < global).  Reuses the annealing engine with an objective that
    penalizes deviation from the target global-variable count, plus a small
    communication term so the result is still a sensible partition. *)

type bias = Balanced | Mostly_local | Mostly_global

let target_globals bias n_accessed =
  match bias with
  | Balanced -> n_accessed / 2
  | Mostly_local -> max 1 (n_accessed / 4)
  | Mostly_global -> n_accessed - max 1 (n_accessed / 4)

let objective ~bias (p : Partition.t) =
  let locals, globals = Classify.counts p in
  let n_accessed = locals + globals in
  let target = target_globals bias n_accessed in
  let deviation = abs (globals - target) in
  (* Also require every partition to hold at least one behavior, so all
     components are actually used. *)
  let used = Array.make p.Partition.n_parts false in
  for b = 0 to p.Partition.n_behaviors - 1 do
    used.(p.Partition.parts.(b)) <- true
  done;
  let empty_parts =
    Array.fold_left (fun n u -> if u then n else n + 1) 0 used
  in
  (1000.0 *. float_of_int deviation)
  +. (10000.0 *. float_of_int empty_parts)
  +. (0.001 *. float_of_int (Cost.comm_bits p))

let run ?(seed = 42) ?(steps = 4000) g ~n_parts ~bias =
  let config = { Annealing.default_config with seed; steps } in
  Annealing.run_objective ~config ~objective:(objective ~bias) g ~n_parts
