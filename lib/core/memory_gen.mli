(** Generation of memory-module behaviors (the paper's [Memory] behavior
    of Figure 5c).  A memory holds the variables mapped to it, with their
    original initial values (booleans bus-encoded as int<1>), and serves
    read/write requests on its port buses with the slave side of the
    handshake protocol.  A multi-port memory (Model3) runs one serving
    process per port, all sharing the storage.

    Hardened memories triplicate each scalar (TMR): shadows are refreshed
    on writes and majority-voted against the primary on reads, repairing
    any single storage bit flip (an [FLT_MEMFIX_*] marker exposes the
    repair in the trace). *)

open Spec

val branches_for :
  ?style:Protocol.style ->
  ?harden:Protocol.harden_cfg ->
  ?shadows:(string * (string * string)) list ->
  Protocol.bus_signals ->
  addr_of:(string -> int) ->
  Ast.var_decl list ->
  (Ast.expr * Ast.stmt list) list
(** Read + write response branches for every variable, in declaration
    order.  [shadows] maps a scalar's name to its TMR shadow pair
    (hardened memories only). *)

val storage :
  ?harden:Protocol.harden_cfg ->
  naming:Naming.t ->
  Ast.var_decl list ->
  (string * (string * string)) list * Ast.var_decl list
(** The shadow map and storage declarations of a memory holding the
    variables: hardened, fresh [x_r1] / [x_r2] TMR shadows follow the
    variables for every scalar [x]; plain, the variables alone. *)

val memory :
  ?style:Protocol.style ->
  ?harden:Protocol.harden_cfg ->
  naming:Naming.t ->
  name:string ->
  vars:Ast.var_decl list ->
  addr_of:(string -> int) ->
  buses:Protocol.bus_signals list ->
  unit ->
  Ast.behavior
(** No port: pure storage.  One port: a single serving leaf.  Several
    ports: a parallel composition of per-port serving leaves. *)
