(** Bus interfaces for the message-passing model (paper, Section 4.3,
    Figure 8; Model4).  Each partition gets a memory subsystem holding the
    variables homed there, with up to three concurrent serving processes:
    a local-memory server on the partition's local bus, an outbound
    interface forwarding remote requests over the inter-interface bus
    (the paper's [Bus_interface_1]), and an inbound interface answering
    other partitions' requests from the shared storage
    ([Bus_interface_2]). *)

open Spec

type config = {
  bif_partition : int;
  bif_vars : Ast.var_decl list;  (** variables homed in this partition *)
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

val memsys :
  ?style:Protocol.style ->
  ?harden:Protocol.harden_cfg ->
  naming:Naming.t ->
  config ->
  Ast.behavior
(** The whole memory subsystem of one partition.  With [harden] every
    serving process uses the watchdog slave handshake and the shared
    storage is TMR-protected ({!Memory_gen.storage}).
    @raise Invalid_argument on a request bus without an inter bus. *)
