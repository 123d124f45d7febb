(** The litmus shapes: small concurrent-access specifications with
    enumerated allowed-outcome sets and per-signal port ownership.

    The classic shapes (store buffering, message passing, load
    buffering, coherence) address signals standing in for memory
    locations; the [memory] shapes are instantiated against
    {!Core.Memory_gen} output — a real two-port Model3 memory behind
    the generated handshake protocol, hardened or not. *)

open Spec

type t = {
  sh_name : string;
  sh_descr : string;
  sh_program : Ast.program;
  sh_ports : (string * string) list;  (** signal name -> owning port *)
  sh_observed : string list;  (** variables read from the final values *)
  sh_domain : (string * Ast.value list) list;
      (** per observed variable: the values any legal run may leave;
          anything outside is corruption *)
  sh_allowed_sc : Ast.value list list;
      (** observed vectors the sequentially-consistent delta-cycle
          baseline can produce *)
  sh_allowed_weak : Ast.value list list;
      (** additional vectors legal under weak port orderings; vectors in
          neither set are forbidden *)
}

val port_of : t -> string -> string option
(** Ownership map for {!Sim.Memord.make}. *)

val store_buffering : unit -> t
val message_passing : unit -> t
val coherence : unit -> t

val memory : harden:bool -> unit -> t
(** Two bus masters write-then-read one location of a shared two-port
    {!Core.Memory_gen} memory ([mem]); [~harden:true] is the TMR +
    watchdog variant ([mem-tmr]). *)

val all : unit -> t list
(** Every shape, in reporting order. *)

val find : string -> t option
