(** The three experimental designs of the paper (Section 5): partitions of
    the medical system onto two components (a processor and an ASIC) with
    different local/global variable balances —

    - Design1: about as many global as local variables,
    - Design2: more local than global variables,
    - Design3: more global than local variables.

    The partitions are fixed (not searched) so the reproduced tables are
    fully deterministic; the classification counts are asserted by the
    test suite. *)

open Partitioning

type design = {
  d_name : string;
  d_description : string;
  d_partition : Partition.t;
}

let partition_of ~p1_behaviors ~p1_variables =
  let place o =
    match o with
    | Partition.Obj_behavior b -> if List.mem b p1_behaviors then 1 else 0
    | Partition.Obj_variable v -> if List.mem v p1_variables then 1 else 0
  in
  Partition.of_graph Medical.graph ~n_parts:2 place

(** Design1: 7 local / 7 global variables. *)
let design1 =
  {
    d_name = "Design1";
    d_description = "Local = Global";
    d_partition =
      partition_of
        ~p1_behaviors:
          [
            "CALIB_SENSE"; "PEAK_TRACK"; "VALIDATE"; "THRESH_CHECK"; "DISPLAY";
            "ALARM"; "LOG"; "NOTIFY";
          ]
        ~p1_variables:
          [ "peak"; "display_code"; "alarm_on"; "threshold"; "volume";
            "valid"; "log_index" ];
  }

(** Design2: 10 local / 4 global variables. *)
let design2 =
  {
    d_name = "Design2";
    d_description = "Local > Global";
    d_partition =
      partition_of
        ~p1_behaviors:[ "PEAK_TRACK"; "DISPLAY"; "ALARM"; "LOG" ]
        ~p1_variables:[ "peak"; "display_code"; "volume"; "log_index" ];
  }

(** Design3: 4 local / 10 global variables. *)
let design3 =
  {
    d_name = "Design3";
    d_description = "Local < Global";
    d_partition =
      partition_of
        ~p1_behaviors:
          [
            "SELF_TEST"; "FILTER"; "AVERAGE_CALC"; "PEAK_TRACK"; "THRESH_CHECK";
            "ALARM"; "NOTIFY"; "SHUTDOWN";
          ]
        ~p1_variables:[ "peak"; "alarm_on"; "average"; "threshold"; "valid";
                        "display_code" ];
  }

let all = [ design1; design2; design3 ]

(** The paper's allocation: one processor, one ASIC. *)
let allocation = Arch.Allocation.proc_asic ()
