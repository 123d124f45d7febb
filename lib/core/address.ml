(** Memory address assignment (paper, Section 4.2: "each variable will be
    assigned a different address in the address space").  One program-wide
    address space keeps addressing unambiguous across every bus and
    memory; scalars take one slot, arrays a slot per element, in
    declaration order. *)

open Spec

type t = {
  addr_of : (string * int) list;
  addr_width : int;  (** width of every address bus *)
  data_width : int;  (** width of every data bus: the widest variable *)
}

let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2)

(* An array occupies [size] consecutive addresses starting at its base. *)
let slots_of (v : Ast.var_decl) =
  match v.Ast.v_ty with
  | Ast.TArray (_, size) -> max 1 size
  | Ast.TBool | Ast.TInt _ -> 1

let build (p : Ast.program) =
  let vars = p.Ast.p_vars in
  let addr_of, total =
    List.fold_left
      (fun (acc, next) v -> ((v.Ast.v_name, next) :: acc, next + slots_of v))
      ([], 0) vars
  in
  let addr_of = List.rev addr_of in
  let addr_width = max 1 (log2_ceil (max 1 total)) in
  let data_width =
    List.fold_left (fun acc v -> max acc (Ast.ty_width v.Ast.v_ty)) 1 vars
  in
  { addr_of; addr_width; data_width }

let address t v =
  match List.assoc_opt v t.addr_of with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Address.address: unknown variable %s" v)
