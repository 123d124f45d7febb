(** Variable environments: a chain of frames, one per behavior instance or
    procedure activation.  Variables are mutable cells; [out] procedure
    parameters alias the caller's cell.

    Name resolution walks the parent chain once and memoizes the result
    (the cell, the array, or a definitive miss) in every frame it passed
    through, so the steady-state cost of a leaf-local read is a single
    hashtable probe instead of one probe per ancestor frame. *)

open Spec

type frame = {
  f_vars : (string, Ast.value ref) Hashtbl.t;
  f_arrays : (string, Ast.value array) Hashtbl.t;
  f_parent : frame option;
  f_behavior : string;  (** name of the owning behavior / procedure *)
  f_memo_cell : (string, Ast.value ref option) Hashtbl.t;
      (** memoized chain resolution for scalars; [None] = miss everywhere *)
  f_memo_arr : (string, Ast.value array option) Hashtbl.t;
      (** memoized chain resolution for arrays *)
}

let init_of (d : Ast.var_decl) =
  match d.Ast.v_init with
  | Some v -> v
  | None -> Ast.default_value d.Ast.v_ty

let make ?parent ~owner decls =
  let f =
    {
      f_vars = Hashtbl.create 8;
      f_arrays = Hashtbl.create 2;
      f_parent = parent;
      f_behavior = owner;
      f_memo_cell = Hashtbl.create 8;
      f_memo_arr = Hashtbl.create 2;
    }
  in
  List.iter
    (fun (d : Ast.var_decl) ->
      match d.Ast.v_ty with
      | Ast.TArray (_, size) ->
        Hashtbl.replace f.f_arrays d.Ast.v_name (Array.make size (init_of d))
      | Ast.TBool | Ast.TInt _ ->
        Hashtbl.replace f.f_vars d.Ast.v_name (ref (init_of d)))
    decls;
  f

(* [bind] installs new cells after frame creation (procedure entry), so a
   memoized miss or an ancestor's cell cached under that name in this
   frame would go stale: drop it.  Descendant frames are created after
   their parent's bindings are complete, so only this frame's memo can be
   stale. *)
let bind f name cell =
  Hashtbl.replace f.f_vars name cell;
  Hashtbl.remove f.f_memo_cell name

(* Steady-state resolutions return the option stored in the memo table
   via [Hashtbl.find], so a hit performs one string hash and allocates
   nothing. *)
let rec find_cell f name =
  match Hashtbl.find f.f_memo_cell name with
  | res -> res
  | exception Not_found ->
    let res =
      match Hashtbl.find_opt f.f_vars name with
      | Some _ as cell -> cell
      | None ->
        begin match f.f_parent with
        | Some parent -> find_cell parent name
        | None -> None
        end
    in
    Hashtbl.replace f.f_memo_cell name res;
    res

let lookup f name = Option.map (fun cell -> !cell) (find_cell f name)

(** The innermost array binding for the name, walking the parent chain. *)
let rec find_array f name =
  match Hashtbl.find f.f_memo_arr name with
  | res -> res
  | exception Not_found ->
    let res =
      match Hashtbl.find_opt f.f_arrays name with
      | Some _ as arr -> arr
      | None ->
        begin match f.f_parent with
        | Some parent -> find_array parent name
        | None -> None
        end
    in
    Hashtbl.replace f.f_memo_arr name res;
    res

(** Re-run the initializers of the given declarations in this exact frame
    (used when a sequential arm is re-entered).  Existing cells and arrays
    are overwritten in place, so resolutions memoized by this frame's
    descendants stay valid. *)
let reinitialize f decls =
  List.iter
    (fun (d : Ast.var_decl) ->
      let init = init_of d in
      match d.Ast.v_ty with
      | Ast.TArray (_, size) ->
        begin match Hashtbl.find_opt f.f_arrays d.Ast.v_name with
        | Some arr when Array.length arr = size -> Array.fill arr 0 size init
        | Some _ | None ->
          Hashtbl.replace f.f_arrays d.Ast.v_name (Array.make size init);
          Hashtbl.remove f.f_memo_arr d.Ast.v_name
        end
      | Ast.TBool | Ast.TInt _ ->
        begin match Hashtbl.find_opt f.f_vars d.Ast.v_name with
        | Some cell -> cell := init
        | None ->
          Hashtbl.replace f.f_vars d.Ast.v_name (ref init);
          Hashtbl.remove f.f_memo_cell d.Ast.v_name
        end)
    decls
