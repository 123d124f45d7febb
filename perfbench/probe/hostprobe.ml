(* The host-speed probe's kernel (see perfbench/probe.ml).  It allocates
   and walks maps, hash tables, lists and buffers, as the program's layers
   do, and uses only the standard library. *)

module IM = Map.Make (Int)

let kernel () =
  let m = ref IM.empty in
  for i = 0 to 3_999 do
    m := IM.add ((i * 7_919) land 8_191) i !m
  done;
  let h = Hashtbl.create 256 in
  IM.iter (fun k v -> Hashtbl.replace h (string_of_int k) v) !m;
  let b = Buffer.create 4096 in
  let l = ref [] in
  for i = 0 to 2_999 do
    Buffer.add_string b (string_of_int i);
    l := (i, Hashtbl.find_opt h (string_of_int i)) :: !l
  done;
  let s =
    List.fold_left (fun acc (i, v) -> acc + i + Option.value ~default:0 v) 0 !l
  in
  Sys.opaque_identity (s + Buffer.length b + IM.cardinal !m)
