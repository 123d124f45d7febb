(** The leaf-statement interpreter: an explicit task-stack machine so a
    process can suspend at any [wait until] and resume later.  Variable
    assignments take effect immediately; signal assignments are scheduled
    on the {!Sigtable} and commit at the next delta cycle.

    Process bodies are compiled once into a [cstmt] tree whose sites
    carry their own staging caches (resolved cells, staged expression
    closures, interned signal ids).  The caches are keyed by the physical
    frame they were filled in, so they are observably transparent —
    including error messages and the point at which a dynamic error
    fires. *)

open Spec

(** Dynamic error: unbound name, non-boolean condition, bad call. *)
exception Run_error of string

(** How a name read by a process resolves — internal. *)
type resolution

(** Staging state of an expression site — internal. *)
type staging = CSnone | CSframe of Env.frame | CSdynamic

type cexpr = {
  ce_expr : Ast.expr;  (** the source expression *)
  mutable ce_state : staging;
  mutable ce_fn : unit -> Ast.value;
}
(** An expression site with its staged closure — internal, managed by
    {!run}; [ce_expr] is stable and physical, so schedulers can key on
    it. *)

type cell_cache = (Env.frame * Ast.value ref) option ref
type arr_cache = (Env.frame * Ast.value array) option ref

type cstmt =
  | Cskip
  | Cassign of string * cexpr * cell_cache
  | Cassign_idx of string * cexpr * cexpr * arr_cache
  | Csignal_assign of string * cexpr * int ref
  | Cif of (cexpr * cstmt list) list * cstmt list
  | Cwhile of cexpr * cstmt list
  | Cfor of string * cell_cache * cexpr * cexpr * cstmt list
  | Cwait of cexpr
  | Ccall of call_site
  | Cemit of string * cexpr

and call_site = {
  cs_name : string;
  cs_args : carg list;
  mutable cs_proc : Ast.proc_decl option;
  mutable cs_body : cstmt list;
  mutable cs_pool : pool_state;
      (** the frame of the site's first completed call, kept for reuse *)
}

and pool_state = PSnone | PSineligible | PSpool of pool

and pool = {
  p_frame : Env.frame;
  p_parent : Env.frame;  (** caller frame the pooled frame hangs under *)
  p_cells : Ast.value ref array;  (** parameter cells, declaration order *)
  mutable p_busy : bool;  (** a call is live in the frame (recursion) *)
}

and carg = Carg_expr of cexpr | Carg_var of string

type task =
  | Tstmts of cstmt list
  | Twhile of cexpr * cstmt list
  | Tfor of string * cell_cache * int * int * cstmt list
      (** index, its resolved cell, next value, upper bound *)
  | Twait of cexpr
  | Tpop_frame
  | Tpop_pool of pool  (** pop and release the pooled frame *)

type exec = {
  mutable stack : task list;  (** empty = finished *)
  mutable frame : Env.frame;
  ex_owner : string;  (** behavior name, for diagnostics *)
  ex_body : cstmt list;  (** the compiled body, for {!reset_exec} *)
  ex_base : Env.frame;  (** the instantiation frame *)
  mutable ex_gen : int;  (** bumped by {!reset_exec} *)
  ex_res : (string, Env.frame * resolution) Hashtbl.t;
      (** per-frame name resolutions — internal, managed by {!run} *)
  mutable ex_eval : (context * (Ast.expr -> Ast.value)) option;
      (** cached dynamic evaluator — internal, managed by {!run} *)
}

and context = {
  cx_signals : Sigtable.t;
  cx_trace : Trace.t;
  cx_procs : Ast.proc_decl list;
  mutable cx_delta : int;  (** current delta cycle, stamped onto events *)
}

val make_exec : owner:string -> frame:Env.frame -> Ast.stmt list -> exec

val reset_exec : exec -> unit
(** Rewind the machine to the top of its compiled body in its
    instantiation frame, bumping [ex_gen].  With the frame's variables
    reinitialized (see {!Env.reinitialize}), the machine is observably a
    fresh {!make_exec} — but keeps its staged sites. *)

type status =
  | Progress  (** executed at least one step and can continue *)
  | Blocked of Ast.expr  (** stopped at an unsatisfied wait *)
  | Finished

val step : context -> exec -> status
(** One machine step. *)

val run : context -> exec -> fuel:int -> status * int
(** Run until the machine blocks, finishes, or exhausts [fuel] steps;
    returns the final status and the steps consumed. *)
