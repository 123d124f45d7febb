(** Partitioning cost: cross-partition communication plus load imbalance.
    Used as the objective of the automatic partitioners. *)

open Agraph

type weights = {
  w_comm : float;  (** weight of cross-partition traffic (bits) *)
  w_balance : float;  (** weight of the load spread between partitions *)
}

let default_weights = { w_comm = 1.0; w_balance = 0.25 }

(* Raise for edge [k], whose variable part [pv] or behavior part is
   [-1]; the variable is checked first. *)
let unassigned (idx : Index.t) k pv =
  let e = idx.Index.edges.(k) in
  let what, name =
    if pv < 0 then ("variable", e.Access_graph.de_variable)
    else ("behavior", e.Access_graph.de_behavior)
  in
  invalid_arg (Printf.sprintf "Cost: %s %s unassigned" what name)

let comm_bits_at (idx : Index.t) a =
  let eb = idx.Index.e_behavior and ev = idx.Index.e_variable in
  let bits = idx.Index.e_bits in
  let acc = ref 0 in
  for k = 0 to Array.length bits - 1 do
    let pv = a.(ev.(k)) and pb = a.(eb.(k)) in
    if pv < 0 || pb < 0 then unassigned idx k pv;
    if pb <> pv then acc := !acc + bits.(k)
  done;
  !acc

let part_loads_at (idx : Index.t) a =
  let eb = idx.Index.e_behavior and bits = idx.Index.e_bits in
  let loads = Array.make idx.Index.n_parts 0.0 in
  for k = 0 to Array.length bits - 1 do
    let i = a.(eb.(k)) in
    if i < 0 then unassigned idx k 0;
    loads.(i) <- loads.(i) +. float_of_int bits.(k)
  done;
  loads

let imbalance_at idx a =
  let loads = part_loads_at idx a in
  let mx = ref neg_infinity and mn = ref infinity in
  for i = 0 to Array.length loads - 1 do
    let l = loads.(i) in
    if l > !mx then mx := l;
    if l < !mn then mn := l
  done;
  !mx -. !mn

let total_at ?(weights = default_weights) idx a =
  (weights.w_comm *. float_of_int (comm_bits_at idx a))
  +. (weights.w_balance *. imbalance_at idx a)

let indexed f g part =
  let idx, a = Index.make g part in
  f idx a

let comm_bits g part = indexed comm_bits_at g part
let part_loads g part = indexed part_loads_at g part
let imbalance g part = indexed imbalance_at g part
let total ?weights g part = indexed (total_at ?weights) g part
