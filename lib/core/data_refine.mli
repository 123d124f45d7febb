(** Data-related refinement (paper, Section 4.2, Figures 5 and 6): once a
    variable is mapped to a memory module its name is no longer visible to
    the behaviors, so every access is substituted with a bus-protocol
    call.  Reads load the value into a fresh [tmp] variable declared in
    the accessing behavior; writes become [MST_send] calls; reads in TOC
    conditions of sequential compositions load a [tmp] declared in the
    composite, with the protocol call appended to the end of the preceding
    arm. *)

open Spec

exception Refine_error of string
(** Raised on constructs the refinement cannot translate: a [for] index or
    an [out] procedure argument that is a partitioned variable, or a user
    procedure body accessing a partitioned variable. *)

type ctx = {
  dr_naming : Naming.t;
  dr_is_program_var : string -> bool;
      (** true for partitioned (program-level) variables *)
  dr_ty_of : string -> Ast.ty;  (** type of a partitioned variable *)
  dr_addr_of : string -> int;  (** its memory address *)
  dr_bus_of : string -> Protocol.bus_signals;
      (** the bus this process uses to reach the variable *)
  dr_arb_of : region:string -> string -> Arbiter.requester option;
      (** the requester of the given sequential region on the bus of the
          given variable, when that bus is arbitrated.  A region is a
          maximal Par-free subtree: every child of a parallel composition
          starts a new region named after that child, because its leaves
          execute concurrently with its siblings' and need their own
          request/acknowledge pair. *)
}

val refine_behavior : ctx -> root_region:string -> Ast.behavior -> Ast.behavior
(** Rewrite every access to a partitioned variable in the tree (leaf
    statements and TOC conditions), declaring the needed [tmp] variables.
    Local declarations shadowing a partitioned variable are respected.
    [root_region] names the region of the tree's root (conventionally the
    root behavior's name). *)
