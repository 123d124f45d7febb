module Set = Set.Make (String)
module Map = Map.Make (String)

(* Folding from the right lets an earlier entry overwrite a later one. *)
let bind decls scope =
  List.fold_right (fun (name, v) m -> Map.add name v m) decls scope
