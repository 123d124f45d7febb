let names = List.map fst Sources.all

let program name =
  match List.assoc_opt name Sources.all with
  | None -> invalid_arg ("Workloads.Builtin: no workload " ^ name)
  | Some text -> (
    match Spec.Parser.valid_program_of_string text with
    | Ok (p, _) -> p
    | Error msg -> invalid_arg (Printf.sprintf "%s.sc: %s" name msg))

(* Every partition here has two components: the named behaviors and
   variables go on component 1 (the ASIC), every other object of the
   graph on component 0 (the processor). *)
let on_asic graph objects =
  Partitioning.Partition.of_graph graph ~n_parts:2 (fun o ->
      if List.mem (Partitioning.Partition.obj_name o) objects then 1 else 0)

let partition name graph =
  on_asic graph
    (match name with
    | "fig1" -> [ "B"; "x" ]
    | "fig2" -> [ "B3"; "B4"; "v5"; "v6"; "v7" ]
    | "pingpong" -> [ "PONG" ]
    | "elevator" ->
      [ "MOTOR_START"; "TRAVEL"; "MOTOR_STOP"; "DOOR_OPEN"; "DOOR_CLOSE";
        "motor"; "door" ]
    | "fir" -> [ "LOAD_COEFFS"; "FILTER"; "coeff"; "delay"; "output" ]
    | _ -> invalid_arg ("Workloads.Builtin.partition: " ^ name))

type design = {
  d_name : string;
  d_description : string;
  d_partition : Partitioning.Partition.t;
}

(* The three designs differ in their local/global variable balance
   (7/7, 10/4 and 4/10), which the test suite asserts. *)
let designs graph =
  List.map
    (fun (d_name, d_description, objects) ->
      { d_name; d_description; d_partition = on_asic graph objects })
    [
      ( "Design1", "Local = Global",
        [ "CALIB_SENSE"; "PEAK_TRACK"; "VALIDATE"; "THRESH_CHECK"; "DISPLAY";
          "ALARM"; "LOG"; "NOTIFY"; "peak"; "display_code"; "alarm_on";
          "threshold"; "volume"; "valid"; "log_index" ] );
      ( "Design2", "Local > Global",
        [ "PEAK_TRACK"; "DISPLAY"; "ALARM"; "LOG"; "peak"; "display_code";
          "volume"; "log_index" ] );
      ( "Design3", "Local < Global",
        [ "SELF_TEST"; "FILTER"; "AVERAGE_CALC"; "PEAK_TRACK"; "THRESH_CHECK";
          "ALARM"; "NOTIFY"; "SHUTDOWN"; "peak"; "alarm_on"; "average";
          "threshold"; "valid"; "display_code" ] );
    ]
