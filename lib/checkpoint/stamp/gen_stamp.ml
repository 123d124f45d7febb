(* Usage: gen_stamp.exe LIB_DIR OCAML_VERSION.  Prints [let stamp = "<hex>"],
   the MD5 of the compiler version and of the path and contents of every
   .ml/.mli under LIB_DIR in sorted order, leaving out the generated
   build_stamp.ml itself. *)

let rec sources dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name = "build_stamp.ml" then []
         else if Sys.is_directory path then sources path
         else if List.mem (Filename.extension name) [ ".ml"; ".mli" ] then
           [ path ]
         else [])

let () =
  let files = List.sort compare (sources Sys.argv.(1)) in
  let digest path = path ^ "\x00" ^ Digest.to_hex (Digest.file path) in
  let all = String.concat "\x00" (Sys.argv.(2) :: List.map digest files) in
  Printf.printf "let stamp = %S\n" (Digest.to_hex (Digest.string all))
