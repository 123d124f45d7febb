let spec = Builtin.program "medical"
let graph = Agraph.Access_graph.of_program spec
let objects = Agraph.Access_graph.default_objects spec

let leaf_names =
  [
    "INIT"; "SELF_TEST"; "CALIB_SENSE"; "ACQUIRE"; "FILTER"; "ACCUMULATE";
    "AVERAGE_CALC"; "VOLUME_CALC"; "PEAK_TRACK"; "VALIDATE"; "THRESH_CHECK";
    "DISPLAY"; "ALARM"; "LOG"; "NOTIFY"; "SHUTDOWN";
  ]

let variables = spec.Spec.Ast.p_vars
let variable_names = List.map (fun v -> v.Spec.Ast.v_name) variables
