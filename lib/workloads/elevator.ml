let spec = Builtin.program "elevator"
let graph = Agraph.Access_graph.of_program spec
let partition = Builtin.partition "elevator" graph
