let spec = Builtin.program "fir"

let taps =
  match Spec.Program.lookup_var spec "coeff" with
  | Some { Spec.Ast.v_ty = TArray (_, n); _ } -> n
  | _ -> invalid_arg "fir.sc: no coeff array"

let graph = Agraph.Access_graph.of_program spec
let partition = Builtin.partition "fir" graph
