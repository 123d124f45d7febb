(** Shared helpers for the test suites. *)

open Spec

let value_testable =
  Alcotest.testable (fun ppf v -> Expr.pp_value ppf v) Ast.equal_value

let expr_testable =
  Alcotest.testable (fun ppf e -> Expr.pp ppf e) Ast.equal_expr

let program_testable =
  Alcotest.testable
    (fun ppf p -> Format.pp_print_string ppf p.Ast.p_name)
    Ast.equal_program

let check_value = Alcotest.check value_testable
let check_expr = Alcotest.check expr_testable

(** Evaluate an expression over an association-list environment. *)
let eval_with env e =
  Expr.eval ~lookup:(fun x -> List.assoc_opt x env) e

let vint n = Ast.VInt n
let vbool b = Ast.VBool b

(** Refine and return the result, failing the test on refiner errors. *)
let refine ?options p part model =
  let g = Agraph.Access_graph.of_program p in
  try Core.Refiner.refine ?options p g part model
  with Core.Refiner.Refine_error msg ->
    Alcotest.failf "refinement failed: %s" msg

(** Full pipeline check: refine, run structural checks, co-simulate. *)
let refine_and_verify ?options ?(trace_mode = Sim.Cosim.Total) p part model =
  let r = refine ?options p part model in
  begin match Core.Check.run ~original:p r with
  | Ok () -> ()
  | Error msgs ->
    Alcotest.failf "structural check failed: %s" (String.concat "; " msgs)
  end;
  let v =
    Sim.Cosim.check ~trace_mode ~original:p ~refined:r.Core.Refiner.rf_program
      ()
  in
  if not v.Sim.Cosim.v_equivalent then
    Alcotest.failf "not equivalent: %s"
      (String.concat "; " v.Sim.Cosim.v_problems);
  r

(** Run a program to completion, failing the test otherwise. *)
let run_ok ?config p =
  let r = Sim.Engine.run ?config p in
  begin match r.Sim.Engine.r_outcome with
  | Sim.Engine.Completed -> ()
  | o -> Alcotest.failf "simulation: %s" (Sim.Engine.outcome_to_string o)
  end;
  r

let trace_values tag r =
  List.filter_map
    (fun e ->
      if String.equal e.Sim.Trace.ev_tag tag then Some e.Sim.Trace.ev_value
      else None)
    r.Sim.Engine.r_trace

let final r name =
  match List.assoc_opt name r.Sim.Engine.r_final with
  | Some v -> v
  | None -> Alcotest.failf "no final value for %s" name

let tc name f = Alcotest.test_case name `Quick f

(** Run [f], failing the test if it allocates more heap than reading
    [size] bytes of untrusted input should cost: a small multiple of
    [size] plus fixed set-up and GC slack (4 MiB), never what a corrupt
    length field or a hostile document asks for. *)
let check_allocation ~label ~size f =
  let before = Gc.allocated_bytes () in
  let v = f () in
  let used = Gc.allocated_bytes () -. before in
  if used > float_of_int ((16 * size) + (4 lsl 20)) then
    Alcotest.failf "%s: allocated %.0f bytes for %d bytes of input" label used
      size;
  v
