(** Partitioning cost: cross-partition communication plus load imbalance.
    Used as the objective of the automatic partitioners. *)

type weights = {
  w_comm : float;  (** weight of cross-partition traffic (bits) *)
  w_balance : float;  (** weight of the load spread between partitions *)
}

let default_weights = { w_comm = 1.0; w_balance = 0.25 }

let comm_bits (p : Partition.t) =
  let a = p.Partition.parts in
  let eb = p.Partition.e_behavior and ev = p.Partition.e_variable in
  let bits = p.Partition.e_bits in
  let acc = ref 0 in
  for k = 0 to Array.length bits - 1 do
    if a.(eb.(k)) <> a.(ev.(k)) then acc := !acc + bits.(k)
  done;
  !acc

let part_loads (p : Partition.t) =
  let a = p.Partition.parts in
  let eb = p.Partition.e_behavior and bits = p.Partition.e_bits in
  let loads = Array.make p.Partition.n_parts 0.0 in
  for k = 0 to Array.length bits - 1 do
    let i = a.(eb.(k)) in
    loads.(i) <- loads.(i) +. float_of_int bits.(k)
  done;
  loads

let imbalance p =
  let loads = part_loads p in
  let mx = ref neg_infinity and mn = ref infinity in
  for i = 0 to Array.length loads - 1 do
    let l = loads.(i) in
    if l > !mx then mx := l;
    if l < !mn then mn := l
  done;
  !mx -. !mn

let total ?(weights = default_weights) p =
  (weights.w_comm *. float_of_int (comm_bits p))
  +. (weights.w_balance *. imbalance p)
