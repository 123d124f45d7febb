(** Shared infrastructure of the lint passes: the analysis context, the
    pass interface, phase inference, and structural helpers for
    recognizing refinement-generated protocol shapes. *)

open Spec
open Ast

(** Whether the program is an unpartitioned input spec ([Pre]) or a
    refined / server-style output ([Post]); drives severity for the
    phase-sensitive passes. *)
type phase = Pre | Post

val infer_phase : program -> phase
(** [Post] when all storage has moved out of the program variable
    section and wires or servers are present; [Pre] otherwise. *)

(** One leaf behavior (or the TOC conditions of one sequential
    composition), with its accesses resolved against the scope.
    Variable accesses are keyed by declaration: a program variable by
    its name, a behavior-local by [owner.name]. *)
type site = {
  st_behavior : string;
  st_path : string list;  (** path from the top behavior, inclusive *)
  st_region : string;
      (** nearest enclosing Par-child ancestor; the top behavior when
          not under any Par *)
  st_server : bool;  (** inside a registered perpetual server subtree *)
  st_stmts : stmt list;  (** direct statements ([[]] for a TOC site) *)
  st_var_reads : (string * string) list;  (** (decl key, display name) *)
  st_var_writes : (string * string) list;
  st_sig_reads : string list;
  st_sig_writes : string list;
  st_waits : expr list;
  st_calls : (string * arg list) list;
}

type t = {
  lc_program : program;
  lc_phase : phase;
  lc_signals : Names.Set.t;  (** the program's declared signals *)
  lc_sites : site list;  (** every leaf and TOC site, preorder *)
  lc_flow : Flow.summary option;
      (** flow summary ({!Flow.of_program}) when the flow-sensitive pass
          modes are enabled; [None] keeps every pass structural *)
}

(** A named analysis pass; [p_codes] documents the diagnostic codes it
    can emit as (code, one-line description) pairs. *)
type pass = {
  p_name : string;
  p_codes : (string * string) list;
  p_run : t -> Diagnostic.t list;
}

val make_ctx : phase:phase -> ?flow:Flow.summary -> program -> t

val waits_of_stmts : expr list -> stmt list -> expr list
(** All [wait until] conditions, including nested ones, prepended in
    reverse source order. *)

val is_signal : t -> string -> bool
(** [x] is a signal the program declares. *)

val master_procs : t -> (string * string) list
(** Procedures shaped like refinement-generated bus masters
    ([MST_send]/[MST_receive]): [(proc name, address signal)]. *)

val bus_signal_set :
  t -> addr:string -> procs:(string * string) list -> string list
(** The wire set of the bus mastered through [procs]: the address signal
    plus every signal those procedures drive or wait on. *)

(** A statically decoded slave address: an exact compare or an inclusive
    range. *)
type served = Single of int | Range of int * int

val serves : int -> served -> bool

val served_addresses : t -> (string * served) list
(** Every address decode ([s = k] or [s >= lo && s <= hi]) found in
    behavior leaves, TOC conditions or procedure bodies. *)

val proc_signal_uses : t -> proc_decl -> string list * string list
(** Signals driven and signals read by a procedure body, with
    parameters and locals masked. *)

val severity_for_phase : phase -> Diagnostic.severity
(** [Warning] at [Pre], [Error] at [Post]. *)
