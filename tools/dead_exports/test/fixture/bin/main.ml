module X = Fixlib.A
module K = Fixlib.A.Key
module S = Set.Make (Fixlib.A.Key)

let () =
  let module L = Fixlib.A in
  let total =
    Fixlib.B.via_include 1 + Fixlib.B.twice 1 + X.via_alias 1
    + L.via_let_module 1 + Fixlib.A.opt_passed ~n:2 1 + Fixlib.A.opt_passed 1
    + Fixlib.A.opt_never 1
    + List.fold_left ( + ) 0 (List.map Fixlib.A.opt_never [ 1; 2 ])
    + S.cardinal (S.of_list [ 1; 2 ])
  in
  print_endline (K.show total)
