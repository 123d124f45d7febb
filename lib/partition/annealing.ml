(** Simulated-annealing partitioner with a caller-supplied objective.  The
    default objective is {!Cost.total}; {!Design_search} reuses the engine
    with a local/global-ratio objective.  Fully deterministic given the
    seed. *)

type config = {
  seed : int;
  initial_temp : float;
  cooling : float;  (** multiplicative factor per step *)
  steps : int;
}

let default_config =
  { seed = 42; initial_temp = 1000.0; cooling = 0.995; steps = 2000 }

(* The initial partition draws one part per object in graph order; each
   step draws an object by its number, which is its position in
   {!Partition.objects}, and moves it in the start's assignment, the
   search's working array.  A rejected move is undone in place. *)
let run_objective ?(config = default_config) ~objective g ~n_parts =
  let rng = Rng.create config.seed in
  let work = Partition.of_graph g ~n_parts (fun _ -> Rng.int rng n_parts) in
  let current = work.Partition.parts in
  let current_cost = ref (objective work) in
  let best = Array.copy current in
  let best_cost = ref !current_cost in
  let n_objs = Array.length current in
  let temp = ref config.initial_temp in
  for _ = 1 to config.steps do
    let o = Rng.int rng n_objs in
    let target = Rng.int rng n_parts in
    let prev = current.(o) in
    current.(o) <- target;
    let next_cost = objective work in
    let delta = next_cost -. !current_cost in
    let accept =
      delta <= 0.0
      || (!temp > 0.0 && Rng.float rng < exp (-.delta /. !temp))
    in
    if accept then begin
      current_cost := next_cost;
      if next_cost < !best_cost then begin
        Array.blit current 0 best 0 n_objs;
        best_cost := next_cost
      end
    end
    else current.(o) <- prev;
    temp := !temp *. config.cooling
  done;
  Partition.with_parts work best

let run ?config g ~n_parts =
  run_objective ?config ~objective:Cost.total g ~n_parts
