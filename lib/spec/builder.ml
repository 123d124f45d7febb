(** Convenience constructors for writing specifications directly in OCaml
    (used by the workloads, the examples and the tests).  For behaviors see
    {!Behavior.leaf}, {!Behavior.seq}, {!Behavior.par} and {!Behavior.arm}. *)

open Ast

(** [var "x" (TInt 16) ~init:(VInt 0)] *)
let var ?init name ty = { v_name = name; v_ty = ty; v_init = init }

let signal ?init name ty = { s_name = name; s_ty = ty; s_init = init }

let int_var ?(width = 16) ?init name =
  var ?init:(Option.map (fun n -> VInt n) init) name (TInt width)

let bool_var ?init name =
  var ?init:(Option.map (fun b -> VBool b) init) name TBool

let int_signal ?(width = 16) ?init name =
  signal ?init:(Option.map (fun n -> VInt n) init) name (TInt width)

let bool_signal ?init name =
  signal ?init:(Option.map (fun b -> VBool b) init) name TBool

let param_in name ty = { prm_name = name; prm_mode = Mode_in; prm_ty = ty }
let param_out name ty = { prm_name = name; prm_mode = Mode_out; prm_ty = ty }

let proc ?(params = []) ?(vars = []) name body =
  { prc_name = name; prc_params = params; prc_vars = vars; prc_body = body }

(** [goto "B"] — unconditional transition. *)
let goto ?cond target = { t_cond = cond; t_target = Goto target }

let complete () = { t_cond = None; t_target = Complete }

(** Statement shorthands. *)
let ( <-- ) x e = Assign (x, e)

let ( <== ) s e = Signal_assign (s, e)
let if_ c then_ else_ = If ([ (c, then_) ], else_)
let while_ c body = While (c, body)
let wait_until c = Wait_until c
let emit tag e = Emit (tag, e)
