(** Bus interfaces for the message-passing model (paper, Section 4.3,
    Figure 8; Model4).  Each partition gets a memory subsystem holding the
    variables homed there, with up to three concurrent serving processes:

    - a local-memory server answering the partition's local bus;
    - an outbound interface: a slave on the partition's request bus that
      forwards any request for a remote address over the inter-interface
      bus (the paper's [Bus_interface_1] asking [Bus_interface_2]);
    - an inbound interface: a slave on the inter-interface bus answering
      requests for this partition's variables directly from the shared
      storage (the paper's [Bus_interface_2] reading [LM2]).

    The outbound interface forwards addresses generically (it copies the
    requester's address onto the inter bus), so a single pair of response
    branches serves every remote variable.

    When hardened, every serving process uses the watchdog slave
    handshake and the shared storage is TMR-protected exactly as in
    {!Memory_gen} — the local server and the inbound interface share one
    shadow set, since they serve the same storage. *)

open Spec
open Spec.Ast

type config = {
  bif_partition : int;
  bif_vars : var_decl list;  (** variables homed in this partition *)
  bif_addr_of : string -> int;
  bif_local_bus : Protocol.bus_signals option;
      (** present when the partition has local traffic *)
  bif_request_bus : Protocol.bus_signals option;
      (** present when the partition has outgoing remote traffic *)
  bif_inter_bus : Protocol.bus_signals option;
      (** present when any cross-partition traffic exists *)
  bif_inter_requester : Arbiter.requester option;
      (** this interface's grant pair on the inter bus, when arbitrated *)
  bif_serves_inbound : bool;
      (** whether remote partitions access variables homed here *)
}

let bracket req stmts =
  match req with
  | None -> stmts
  | Some r -> Arbiter.acquire r @ stmts @ Arbiter.release r

(* Outbound interface: generic forwarding of the request bus onto the
   inter bus.  The forwarded address is whatever the master drove.  The
   inter-bus master protocol is provided by the generated MST procedures,
   which are themselves hardened when the design is; only the slave side
   on the request bus needs watchdog treatment here. *)
let outbound_leaf ?style ?harden ~naming ~partition
    ~(req : Protocol.bus_signals) ~(inter : Protocol.bus_signals)
    ~inter_requester () =
  let name = Naming.fresh naming (Printf.sprintf "BIF_out_%d" partition) in
  let fwd = Naming.fresh naming (Printf.sprintf "bif_fwd_%d" partition) in
  let read_branch =
    ( Expr.(ref_ req.Protocol.bs_rd = tru),
      bracket inter_requester
        [
          Call
            ( Protocol.mst_receive_name inter,
              [ Arg_expr (Ref req.Protocol.bs_addr); Arg_var fwd ] );
        ]
      @ Protocol.slv_drive_data ?harden req (Expr.ref_ fwd)
      @ Protocol.slv_complete ?style ?harden req )
  in
  let write_branch =
    ( Expr.(ref_ req.Protocol.bs_wr = tru),
      (Builder.(fwd <-- Expr.ref_ req.Protocol.bs_data)
      :: bracket inter_requester
           [
             Call
               ( Protocol.mst_send_name inter,
                 [
                   Arg_expr (Ref req.Protocol.bs_addr);
                   Arg_expr (Ref fwd);
                 ] );
           ])
      @ Protocol.slv_complete ?style ?harden req )
  in
  Behavior.leaf
    ~vars:
      (Builder.var fwd (TInt inter.Protocol.bs_data_width)
      :: Protocol.wdg_vars harden)
    name
    (Protocol.slave_loop ?style ?harden req [ read_branch; write_branch ])

(* Inbound interface: a selective slave on the inter bus serving this
   partition's variables directly. *)
let inbound_leaf ?style ?harden ?shadows ~naming ~partition
    ~(inter : Protocol.bus_signals) ~addr_of ~vars () =
  let name = Naming.fresh naming (Printf.sprintf "BIF_in_%d" partition) in
  Behavior.leaf ~vars:(Protocol.wdg_vars harden) name
    (Protocol.slave_loop_selective ?style inter
       (Memory_gen.branches_for ?style ?harden ?shadows inter ~addr_of vars))

(* Local-memory server on the local bus. *)
let local_server_leaf ?style ?harden ?shadows ~naming ~partition
    ~(local : Protocol.bus_signals) ~addr_of ~vars () =
  let name = Naming.fresh naming (Printf.sprintf "LM_serve_%d" partition) in
  Behavior.leaf ~vars:(Protocol.wdg_vars harden) name
    (Protocol.slave_loop ?style ?harden local
       (Memory_gen.branches_for ?style ?harden ?shadows local ~addr_of vars))

(** The whole memory subsystem of one partition. *)
let memsys ?style ?harden ~naming cfg =
  let name = Naming.fresh naming (Printf.sprintf "MEMSYS_%d" cfg.bif_partition) in
  let shadows, storage = Memory_gen.storage ?harden ~naming cfg.bif_vars in
  let children =
    List.filter_map Fun.id
      [
        Option.map
          (fun local ->
            local_server_leaf ?style ?harden ~shadows ~naming
              ~partition:cfg.bif_partition ~local ~addr_of:cfg.bif_addr_of
              ~vars:cfg.bif_vars ())
          cfg.bif_local_bus;
        Option.map
          (fun req ->
            match cfg.bif_inter_bus with
            | Some inter ->
              outbound_leaf ?style ?harden ~naming
                ~partition:cfg.bif_partition ~req ~inter
                ~inter_requester:cfg.bif_inter_requester ()
            | None ->
              invalid_arg
                "Bus_interface.memsys: request bus without inter bus")
          cfg.bif_request_bus;
        (match cfg.bif_inter_bus with
        | Some inter when cfg.bif_serves_inbound && cfg.bif_vars <> [] ->
          Some
            (inbound_leaf ?style ?harden ~shadows ~naming
               ~partition:cfg.bif_partition ~inter ~addr_of:cfg.bif_addr_of
               ~vars:cfg.bif_vars ())
        | Some _ | None -> None);
      ]
  in
  match children with
  | [] -> Behavior.leaf ~vars:storage name []
  | _ -> Behavior.par ~vars:storage name children
