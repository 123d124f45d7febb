type design = Builtin.design = {
  d_name : string;
  d_description : string;
  d_partition : Partitioning.Partition.t;
}

let all = Builtin.designs Medical.graph

let design1, design2, design3 =
  match all with
  | [ d1; d2; d3 ] -> (d1, d2, d3)
  | _ -> assert false

let allocation = Arch.Allocation.proc_asic ()
