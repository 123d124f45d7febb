(** Constraint-aware partitioning (paper, Section 1: partitioning must
    divide the specification "such that the imposed design constraints are
    met and the overall design cost is minimized").

    Each partition has a capacity limit and every object a per-partition
    cost (e.g. estimated gates on an ASIC, estimated code bytes on a
    processor — the caller supplies the model).  The annealing engine
    minimizes cross-partition communication subject to a steep penalty on
    capacity overruns, so any feasible assignment dominates every
    infeasible one. *)

open Agraph

type problem = {
  pr_limits : int array;  (** capacity limit of each partition *)
  pr_object_cost : int -> Partition.obj -> int;
      (** cost of placing an object on a partition *)
}

(** Capacity demand per partition under the problem's cost model. *)
let loads problem (p : Partition.t) =
  let loads = Array.make p.Partition.n_parts 0 in
  Array.iteri
    (fun k o ->
      let i = p.Partition.parts.(k) in
      loads.(i) <- loads.(i) + problem.pr_object_cost i o)
    p.Partition.objs;
  loads

(** Total capacity overrun (0 = feasible). *)
let overrun problem p =
  let total = ref 0 in
  Array.iteri
    (fun i load ->
      if i < Array.length problem.pr_limits then
        total := !total + max 0 (load - problem.pr_limits.(i)))
    (loads problem p);
  !total

let is_feasible problem p = overrun problem p = 0

let objective problem p =
  (* Any overrun dwarfs any achievable communication cost. *)
  let comm = float_of_int (Cost.comm_bits p) in
  let over = float_of_int (overrun problem p) in
  comm +. (1.0e6 *. over)

let run ?(seed = 42) ?(steps = 4000) (g : Access_graph.t) ~problem ~n_parts =
  if Array.length problem.pr_limits <> n_parts then
    invalid_arg "Constrained.run: one limit per partition required";
  let config = { Annealing.default_config with seed; steps } in
  Annealing.run_objective ~config ~objective:(objective problem) g ~n_parts
