let spec = Builtin.program "fir"

let graph = Agraph.Access_graph.of_program spec
let partition = Builtin.partition "fir" graph
