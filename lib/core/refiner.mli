(** The top-level model-refinement procedure (paper, Sections 4–5): given
    a functional specification, its access graph, an allocation, a
    partition and a chosen implementation model, produce the refined
    implementation-model specification — functionally equivalent, with the
    emerging architecture (components, memories, buses, protocols,
    arbiters and bus interfaces) made explicit. *)

open Spec

type options = {
  force_nonleaf : bool;
      (** use the non-leaf control scheme (Figure 4c) even for leaves *)
  protocol : Protocol.style;
      (** bus handshake style: the paper's four-phase handshake of
          Figure 5d, or the faster transition-signalled two-phase
          variant *)
  harden : bool;
      (** generate the hardened protocol variant: watchdog timeouts with
          bounded retry and exponential backoff on every handshake,
          idempotent line re-driving, own-line readback self checks and
          TMR-protected memory scalars; persistent faults fail-stop
          (emitting [WDG_ABORT_*]) instead of corrupting silently *)
}

val default_options : options

type bus_inst = {
  bi_role : Bus_plan.bus_role;
  bi_signals : Protocol.bus_signals;
  bi_requesters : (string * int) list;
      (** master process name -> requester index *)
  bi_arbiter : Arbiter.t option;  (** present when >= 2 requesters *)
}

type verdict
(** The refined program's name-resolution ([NAME001]) and type
    ([TYPE00x]) diagnostics, tied to the program they were computed
    for.  See {!verdict}. *)

type t = {
  rf_program : Ast.program;
      (** the refined specification.  {!refine} validates it and raises
          on any name-resolution error, so the record's {!verdict}
          carries no [NAME001]; its type diagnostics are computed on
          first use and kept.  Both are reused only while [rf_program]
          is physically the program {!refine} built: a record rebuilt
          with another program is validated and typechecked afresh. *)
  rf_verdict : verdict;  (** read it through {!verdict} *)
  rf_model : Model.t;
  rf_plan : Bus_plan.t;
  rf_buses : bus_inst list;  (** instantiated buses, plan order *)
  rf_memories : string list;  (** generated memory behavior names *)
  rf_arbiters : string list;  (** generated arbiter behavior names *)
  rf_moved : string list;  (** generated [B_NEW] behavior names *)
  rf_top_home : int;
  rf_processes : (string * int) list;
      (** every concurrent process (the main control tree and the [B_NEW]
          wrappers) with the partition it executes on *)
  rf_harden : Protocol.harden_cfg option;
      (** the watchdog configuration when the design was hardened *)
}

exception Refine_error of string

val refine :
  ?options:options ->
  Ast.program ->
  Agraph.Access_graph.t ->
  Partitioning.Partition.t ->
  Model.t ->
  t
(** Refine [program] under the given partition and model.  The access
    graph must have been derived from the same program; the partition must
    cover all of its objects and variables.
    @raise Refine_error on untranslatable constructs (see
    {!Data_refine.Refine_error}) or an invalid input program. *)

val verdict : t -> Spec.Diagnostic.t list
(** The [NAME001] ({!Spec.Program.validate}) and [TYPE00x]
    ({!Spec.Typecheck.diagnostics}) findings on [r.rf_program], unsorted.
    For a record straight from {!refine} this typechecks at most once,
    however often it is called and from whichever domain; after
    [{ r with rf_program = p }] it checks [p] on every call. *)
