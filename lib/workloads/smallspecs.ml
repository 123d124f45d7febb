let graph = Agraph.Access_graph.of_program
let fig1 = Builtin.program "fig1"
let fig1_partition = Builtin.partition "fig1" (graph fig1)
let fig2 = Builtin.program "fig2"
let fig2_partition = Builtin.partition "fig2" (graph fig2)
let ping_pong = Builtin.program "pingpong"
let ping_pong_partition = Builtin.partition "pingpong" (graph ping_pong)
