(** Fresh-name generation for the refinement procedures.  All generated
    names are derived from the paper's conventions ([B_CTRL], [B_NEW],
    [B_start], [B_done], [tmp], [Memory], …) and uniquified against every
    name already present in the specification. *)

module Tbl = Hashtbl.Make (String)

(* [next] maps a base to the first suffix [fresh] has not yet seen
   taken: [used] only grows, so every smaller suffix is still taken and
   the next search can start there. *)
type t = { used : unit Tbl.t; next : int Tbl.t }

let of_names names =
  let used = Tbl.create (2 * List.length names + 16) in
  List.iter (fun n -> Tbl.replace used n ()) names;
  { used; next = Tbl.create 16 }

(** All names occurring in a program: behaviors, variables (program-level
    and local), signals, procedures, parameters. *)
let of_program (p : Spec.Ast.program) =
  let open Spec in
  let names = ref [] in
  let add n = names := n :: !names in
  List.iter (fun v -> add v.Ast.v_name) p.Ast.p_vars;
  List.iter (fun s -> add s.Ast.s_name) p.Ast.p_signals;
  List.iter
    (fun pr ->
      add pr.Ast.prc_name;
      List.iter (fun prm -> add prm.Ast.prm_name) pr.Ast.prc_params;
      List.iter (fun v -> add v.Ast.v_name) pr.Ast.prc_vars)
    p.Ast.p_procs;
  ignore
    (Behavior.fold
       (fun () b ->
         add b.Ast.b_name;
         List.iter (fun v -> add v.Ast.v_name) b.Ast.b_vars)
       () p.Ast.p_top);
  of_names !names

(** [fresh t base] is [base] if unused, otherwise [base_2], [base_3], …
    The returned name is recorded as used. *)
let fresh t base =
  let name =
    if not (Tbl.mem t.used base) then base
    else
      let rec go i =
        let candidate = base ^ "_" ^ string_of_int i in
        if Tbl.mem t.used candidate then go (i + 1)
        else begin
          Tbl.replace t.next base (i + 1);
          candidate
        end
      in
      go (Option.value (Tbl.find_opt t.next base) ~default:2)
  in
  Tbl.replace t.used name ();
  name

(** Reserve an externally chosen name (no-op if already used). *)
let reserve t name = Tbl.replace t.used name ()

let is_used t name = Tbl.mem t.used name

(* Conventional derived names (paper, Section 4). *)
let ctrl t base = fresh t (base ^ "_CTRL")
let moved t base = fresh t (base ^ "_NEW")
let start_signal t base = fresh t (base ^ "_start")
let done_signal t base = fresh t (base ^ "_done")
let tmp_var t base = fresh t ("tmp_" ^ base)
