(** The leaf-statement interpreter: an explicit task-stack machine so a
    process can suspend at any [wait until] and resume later.  Variable
    assignments take effect immediately; signal assignments are scheduled
    on the {!Sigtable} and commit at the next delta cycle.

    It walks the source statements directly, resolves every name when it
    is read and builds a fresh frame for every procedure call: the
    reference semantics the bytecode {!Vm} is held bit-identical to. *)

open Spec

(** Dynamic error: unbound name, non-boolean condition, bad call. *)
exception Run_error of string

type task =
  | Tstmts of Ast.stmt list
  | Twhile of Ast.expr * Ast.stmt list
  | Tfor of string * int * int * Ast.stmt list
      (** index variable, next value, upper bound, body *)
  | Twait of Ast.expr
  | Tpop_frame  (** return from a procedure: back to the caller's frame *)

type exec = {
  mutable stack : task list;  (** empty = finished *)
  mutable frame : Env.frame;
  ex_owner : string;  (** behavior name, for diagnostics *)
  ex_body : Ast.stmt list;  (** the body, for {!reset_exec} *)
  ex_base : Env.frame;  (** the instantiation frame *)
}

and context = {
  cx_signals : Sigtable.t;
  cx_trace : Trace.t;
  cx_procs : Ast.proc_decl list;
  mutable cx_delta : int;  (** current delta cycle, stamped onto events *)
}

val make_exec : owner:string -> frame:Env.frame -> Ast.stmt list -> exec

val reset_exec : exec -> unit
(** Rewind the machine to the top of its body in its instantiation
    frame.  With the frame's variables reinitialized (see
    {!Env.reinitialize}), the machine is observably a fresh
    {!make_exec}. *)

type status =
  | Progress  (** executed at least one step and can continue *)
  | Blocked of Ast.expr  (** stopped at an unsatisfied wait *)
  | Finished

val run : context -> exec -> fuel:int -> status * int
(** Run until the machine blocks, finishes, or exhausts [fuel] steps;
    returns the final status and the steps consumed. *)
