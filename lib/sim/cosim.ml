(** Co-simulation: run an original specification and its refinement and
    decide functional equivalence — the correctness requirement of the
    refinement task ("the refined implementation model is functionally
    equivalent to the original one", paper Section 4).

    Equivalence is judged on (1) the observable [emit] trace and (2) the
    final values of the original program variables, read out of the
    refined design's memory behaviors. *)

open Spec

type verdict = {
  v_equivalent : bool;
  v_original : Engine.result;
  v_refined : Engine.result;
  v_problems : string list;
}

let value_to_string v = Format.asprintf "%a" Expr.pp_value v

(* Refined designs store booleans bus-encoded as int<1> (1/0); decode
   before comparing. *)
let values_match ov rv =
  ov = rv
  ||
  match (ov, rv) with
  | Ast.VBool b, Ast.VInt n -> b = (n <> 0)
  | _ -> false

(* The final-value names to compare: scalars by name, arrays
   element-wise. *)
let final_names (p : Ast.program) =
  List.concat_map
    (fun (v : Ast.var_decl) ->
      match v.Ast.v_ty with
      | Ast.TArray (_, size) ->
        List.init size (fun i -> Printf.sprintf "%s[%d]" v.Ast.v_name i)
      | Ast.TBool | Ast.TInt _ -> [ v.Ast.v_name ])
    p.Ast.p_vars

let compare_finals ~vars ~original ~refined =
  List.filter_map
    (fun name ->
      let o = List.assoc_opt name original.Engine.r_final in
      let r = List.assoc_opt name refined.Engine.r_final in
      match (o, r) with
      | Some ov, Some rv when values_match ov rv -> None
      | Some ov, Some rv ->
        Some
          (Printf.sprintf "variable %s: original %s, refined %s" name
             (value_to_string ov) (value_to_string rv))
      | Some _, None ->
        Some (Printf.sprintf "variable %s missing from refined design" name)
      | None, _ -> None)
    vars

type trace_mode =
  | Total  (** traces must match event for event *)
  | Per_tag
      (** each tag's value sequence must match; use for specifications
          with parallel branches, whose cross-branch interleaving is
          scheduling-dependent *)

let has_prefix prefixes tag =
  List.exists
    (fun p ->
      String.length tag >= String.length p
      && String.equal (String.sub tag 0 (String.length p)) p)
    prefixes

let check ?(trace_mode = Total) ?(ignore_prefixes = []) ~original ~refined () =
  let ro = Engine.run original in
  let rr = Engine.run refined in
  (* Hardened refinements emit reserved watchdog/recovery markers
     (WDG_/FLT_ prefixed) that have no counterpart in the original;
     callers filter them out of the equivalence judgement by prefix. *)
  let filter_trace r =
    match ignore_prefixes with
    | [] -> r
    | _ ->
      {
        r with
        Engine.r_trace =
          List.filter
            (fun e -> not (has_prefix ignore_prefixes e.Trace.ev_tag))
            r.Engine.r_trace;
      }
  in
  let ro = filter_trace ro and rr = filter_trace rr in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  begin match ro.Engine.r_outcome with
  | Engine.Completed -> ()
  | o -> note "original did not complete: %s" (Engine.outcome_to_string o)
  end;
  begin match rr.Engine.r_outcome with
  | Engine.Completed -> ()
  | o -> note "refined did not complete: %s" (Engine.outcome_to_string o)
  end;
  begin match trace_mode with
  | Total ->
    let strip r =
      List.map (fun e -> (e.Trace.ev_tag, e.Trace.ev_value)) r.Engine.r_trace
    in
    if strip ro <> strip rr then begin
      match Trace.first_divergence ro.Engine.r_trace rr.Engine.r_trace with
      | Some i -> note "traces diverge at event %d" i
      | None -> note "traces diverge"
    end
  | Per_tag ->
    if not (Trace.projection_equivalent ro.Engine.r_trace rr.Engine.r_trace)
    then note "per-tag trace projections diverge"
  end;
  List.iter
    (fun msg -> note "%s" msg)
    (compare_finals ~vars:(final_names original) ~original:ro ~refined:rr);
  {
    v_equivalent = !problems = [];
    v_original = ro;
    v_refined = rr;
    v_problems = List.rev !problems;
  }

let pp_verdict ppf v =
  if v.v_equivalent then Format.fprintf ppf "equivalent"
  else
    Format.fprintf ppf "NOT equivalent:@,%a"
      (Format.pp_print_list Format.pp_print_string)
      v.v_problems
