(** Generation of memory-module behaviors.  A memory holds the variables
    mapped to it (with their original initial values) and serves
    read/write requests on its port buses with the slave side of the
    handshake protocol (the paper's [Memory] behavior of Figure 5c).  A
    multi-port memory (Model3) runs one serving process per port, all
    sharing the same storage.

    Hardened memories additionally keep each scalar triplicated (TMR):
    two shadow copies are refreshed on every write, and every read first
    majority-votes the primary against the shadows — a flipped primary is
    repaired in place (with an [FLT_MEMFIX_*] marker), a flipped shadow
    is silently re-synchronized, so any {e single} storage bit flip
    between accesses is survivable. *)

open Spec
open Spec.Ast

(* TMR vote-and-repair statements prepended to a hardened scalar read:
   if the primary disagrees with both shadows, the shadows (which agree
   under a single-fault assumption) are authoritative. *)
let vote_stmts bs ~addr ~store (r1, r2) =
  [
    Builder.if_
      Expr.(ref_ store = ref_ r1 || ref_ store = ref_ r2)
      []
      [
        Builder.(store <-- Expr.ref_ r1);
        Builder.emit ("FLT_MEMFIX_" ^ bs.Protocol.bs_label) (Expr.int addr);
      ];
    Builder.(r1 <-- Expr.ref_ store);
    Builder.(r2 <-- Expr.ref_ store);
  ]

(** Response branches serving every variable of [vars] (declaration
    order: read branch then write branch per variable).  A scalar is
    served at its single address; an array is served over its address
    range, the element selected by [bus_addr - base].  [shadows] maps a
    scalar to its TMR shadow pair (hardened memories only; arrays are not
    triplicated): a read votes first, a write refreshes the shadows. *)
let branches_for ?style ?harden ?(shadows = []) bs ~addr_of vars =
  let open Protocol in
  let serve strobe at body =
    (Expr.(ref_ strobe = tru && at), body @ slv_complete ?style ?harden bs)
  in
  let read at ?(vote = []) value =
    serve bs.bs_rd at (vote @ slv_drive_data ?harden bs value)
  in
  List.concat_map
    (fun v ->
      let addr = addr_of v.v_name in
      match v.v_ty with
      | TBool | TInt _ ->
        let at = Expr.(ref_ bs.bs_addr = int addr) in
        let vote, refresh =
          match List.assoc_opt v.v_name shadows with
          | None -> ([], [])
          | Some ((r1, r2) as pair) ->
            ( vote_stmts bs ~addr ~store:v.v_name pair,
              [
                Builder.(r1 <-- Expr.ref_ v.v_name);
                Builder.(r2 <-- Expr.ref_ v.v_name);
              ] )
        in
        [
          read at ~vote (Expr.ref_ v.v_name);
          serve bs.bs_wr at
            (Builder.(v.v_name <-- Expr.ref_ bs.bs_data) :: refresh);
        ]
      | TArray (_, size) ->
        let a = Ref bs.bs_addr in
        let last = addr + size - 1 in
        let in_range = Expr.(a >= int addr && a <= int last) in
        let element = Expr.(a - int addr) in
        [
          read in_range (Index (v.v_name, element));
          serve bs.bs_wr in_range
            [ Assign_idx (v.v_name, element, Ref bs.bs_data) ];
        ])
    vars

(** The storage of a memory holding [vars]: hardened, every scalar [x]
    gets fresh [x_r1] / [x_r2] TMR shadows with the same type and initial
    value.  Returns the shadow map and the storage declarations. *)
let storage ?harden ~naming vars =
  match harden with
  | None -> ([], vars)
  | Some _ ->
    let pairs =
      List.filter_map
        (fun v ->
          match v.v_ty with
          | TArray _ -> None
          | TBool | TInt _ ->
            let r1 = Naming.fresh naming (v.v_name ^ "_r1") in
            let r2 = Naming.fresh naming (v.v_name ^ "_r2") in
            Some (v, r1, r2))
        vars
    in
    ( List.map (fun (v, r1, r2) -> (v.v_name, (r1, r2))) pairs,
      vars
      @ List.concat_map
          (fun (v, r1, r2) ->
            [ { v with v_name = r1 }; { v with v_name = r2 } ])
          pairs )

(** A memory behavior named [name] holding [vars] and serving the port
    buses [buses].  With no port the memory is pure storage (an empty
    leaf); with one port it is a single serving leaf; with several ports
    it is a parallel composition of per-port serving leaves sharing the
    storage.  Hardened memories get TMR shadows for their scalars and
    watchdog locals for their serving loops. *)
let memory ?style ?harden ~naming ~name ~vars ~addr_of ~buses () =
  let shadows, storage = storage ?harden ~naming vars in
  let wdg = Protocol.wdg_vars harden in
  let branches bs = branches_for ?style ?harden ~shadows bs ~addr_of vars in
  match buses with
  | [] -> Behavior.leaf ~vars:storage name []
  | [ bs ] ->
    Behavior.leaf ~vars:(storage @ wdg) name
      (Protocol.slave_loop ?style ?harden bs (branches bs))
  | _ ->
    let ports =
      List.map
        (fun bs ->
          let port_name =
            Naming.fresh naming
              (Printf.sprintf "%s_port_%s" name bs.Protocol.bs_label)
          in
          Behavior.leaf ~vars:wdg port_name
            (Protocol.slave_loop ?style ?harden bs (branches bs)))
        buses
    in
    Behavior.par ~vars:storage name ports
