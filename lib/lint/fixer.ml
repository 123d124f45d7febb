(** [mrefine lint --fix]: source-to-source rewrites for the mechanical
    diagnostics.

    Four codes are fixable.  [WIDTH001] widens narrowed destination
    declarations until width inference reports no loss (widths are
    bus-sizing hints, so widening never changes simulation).
    [PROTO003] inlines a waited-but-never-driven signal as the constant
    it is stuck at, drops the waits that become trivially true, and
    removes the declaration.  [PROTO002] synthesizes the missing
    handshake end for a driven-but-never-observed signal: a passive
    observer server that waits for the signal to leave its rest value
    and return, joining the top-level parallel composition.  [CONT001]
    synthesizes a request/grant arbiter for a multi-master bus: every
    offending caller is wrapped in an acquire/release pair and a server
    behavior granting one requester at a time (in site preorder) joins
    their parallel composition.

    Every rewrite is gated before it is kept: the candidate must pass
    {!Spec.Program.validate}, its printed source must re-parse, a
    re-lint must report zero findings for the fixed code, and
    {!Sim.Cosim.check} must prove it trace-equivalent to the {e
    original} input program (not merely the previous fix step).  A
    transform that fails any gate is reported as refused, with the
    reason, and the program is left untouched by it — [--fix] can
    never trade a diagnostic for a behavior change. *)

open Spec
open Ast

type applied = { fx_code : string; fx_loc : string; fx_note : string }
type refused = { fr_code : string; fr_loc : string; fr_reason : string }

type result = {
  x_program : program;  (** the fixed program (the input if nothing applied) *)
  x_source : string;  (** its printed source *)
  x_applied : applied list;
  x_refused : refused list;
  x_changed : bool;
}

let fixable_codes = [ "CONT001"; "PROTO002"; "PROTO003"; "WIDTH001" ]

exception Cancelled

(* --- the gate ----------------------------------------------------------- *)

let lint_hits ~code ?loc p =
  List.filter
    (fun (d : Diagnostic.t) ->
      String.equal d.Diagnostic.d_code code
      &&
      match loc with
      | None -> true
      | Some l -> String.equal d.Diagnostic.d_loc l)
    (Registry.run p)

(* Accept a candidate rewrite only if it validates, round-trips through
   the printer, re-lints clean for the fixed code (at [loc] if given)
   and cosimulates bit-identically with the pristine input.  [poll] is
   checked before each candidate's (expensive) gate run so a driver can
   cancel a long fix job between rewrites. *)
let gate ~poll ~original ~code ?loc candidate =
  if poll () then raise Cancelled;
  match Program.validate candidate with
  | Error msgs ->
    Error ("fix does not validate: " ^ String.concat "; " msgs)
  | Ok () -> (
    match Parser.program_of_string (Printer.program_to_string candidate) with
    | Error e -> Error ("fixed source does not re-parse: " ^ e)
    | Ok reparsed -> (
      match lint_hits ~code ?loc reparsed with
      | _ :: _ as hits ->
        Error
          (Printf.sprintf "%d %s finding(s) survive the fix"
             (List.length hits) code)
      | [] -> (
        match Sim.Cosim.check ~original ~refined:reparsed () with
        | v when v.Sim.Cosim.v_equivalent -> Ok reparsed
        | v ->
          Error
            ("fix is not simulation-equivalent: "
            ^ (match v.Sim.Cosim.v_problems with
              | m :: _ -> m
              | [] -> "traces differ"))
        | exception e ->
          Error ("cosimulation failed: " ^ Printexc.to_string e))))

(* --- WIDTH001: widen narrowed destinations ------------------------------ *)

(* Where a destination's declaration lives, so the rewrite knows which
   table to patch. *)
type locus =
  | Lvar  (** program-level variable *)
  | Lsig  (** signal *)
  | Lbvar of string  (** local of the named behavior *)
  | Lpvar of string  (** local of the named procedure *)
  | Lparam of string  (** parameter of the named procedure *)

(* Required destination widths, [(locus, name) -> bits], from exactly
   the transfers the width pass reports as WIDTH001. *)
let width_requirements p =
  let reqs = Hashtbl.create 16 in
  let demand locus name bits =
    let key = (locus, name) in
    match Hashtbl.find_opt reqs key with
    | Some b when b >= bits -> ()
    | _ -> Hashtbl.replace reqs key bits
  in
  (* scope: (name, ty, locus), innermost first *)
  let resolve scope x =
    List.find_opt (fun (n, _, _) -> String.equal n x) scope
  in
  let check_stmts scope stmts =
    let ty_of x = Option.map (fun (_, t, _) -> t) (resolve scope x) in
    let narrowing dest e =
      match (dest, Width.width_of ty_of e) with
      | Some dw, Some sw when sw > dw -> Some sw
      | _ -> None
    in
    let rec stmt s =
      match s with
      | Assign (x, e) -> (
        match resolve scope x with
        | Some (_, TInt dw, locus) -> (
          match narrowing (Some dw) e with
          | Some sw -> demand locus x sw
          | None -> ())
        | _ -> ())
      | Assign_idx (x, _, e) -> (
        match resolve scope x with
        | Some (_, TArray (dw, _), locus) -> (
          match narrowing (Some dw) e with
          | Some sw -> demand locus x sw
          | None -> ())
        | _ -> ())
      | Signal_assign (x, e) -> (
        match resolve scope x with
        | Some (_, TInt dw, locus) -> (
          match narrowing (Some dw) e with
          | Some sw -> demand locus x sw
          | None -> ())
        | _ -> ())
      | If (branches, els) ->
        List.iter (fun (_, body) -> List.iter stmt body) branches;
        List.iter stmt els
      | While (_, body) | For (_, _, _, body) -> List.iter stmt body
      | Wait_until _ | Call _ | Emit _ | Skip -> ()
    in
    List.iter stmt stmts
  in
  let base =
    List.map (fun (v : var_decl) -> (v.v_name, v.v_ty, Lvar)) p.p_vars
    @ List.map (fun (s : sig_decl) -> (s.s_name, s.s_ty, Lsig)) p.p_signals
  in
  let rec walk scope b =
    let scope =
      List.map
        (fun (v : var_decl) -> (v.v_name, v.v_ty, Lbvar b.b_name))
        b.b_vars
      @ scope
    in
    match b.b_body with
    | Leaf stmts -> check_stmts scope stmts
    | Par children -> List.iter (walk scope) children
    | Seq arms -> List.iter (fun a -> walk scope a.a_behavior) arms
  in
  walk base p.p_top;
  List.iter
    (fun pr ->
      let scope =
        List.map
          (fun (v : var_decl) -> (v.v_name, v.v_ty, Lpvar pr.prc_name))
          pr.prc_vars
        @ List.map
            (fun prm -> (prm.prm_name, prm.prm_ty, Lparam pr.prc_name))
            pr.prc_params
        @ base
      in
      check_stmts scope pr.prc_body)
    p.p_procs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) reqs []

let widen_ty ty bits =
  match ty with
  | TInt w -> TInt (max w bits)
  | TArray (w, n) -> TArray (max w bits, n)
  | TBool -> TBool

let apply_widths reqs p =
  let find locus name = List.assoc_opt (locus, name) reqs in
  let var locus (v : var_decl) =
    match find locus v.v_name with
    | Some b -> { v with v_ty = widen_ty v.v_ty b }
    | None -> v
  in
  {
    p with
    p_vars = List.map (var Lvar) p.p_vars;
    p_signals =
      List.map
        (fun (s : sig_decl) ->
          match find Lsig s.s_name with
          | Some b -> { s with s_ty = widen_ty s.s_ty b }
          | None -> s)
        p.p_signals;
    p_top =
      Behavior.map
        (fun b ->
          { b with b_vars = List.map (var (Lbvar b.b_name)) b.b_vars })
        p.p_top;
    p_procs =
      List.map
        (fun pr ->
          {
            pr with
            prc_vars = List.map (var (Lpvar pr.prc_name)) pr.prc_vars;
            prc_params =
              List.map
                (fun prm ->
                  match find (Lparam pr.prc_name) prm.prm_name with
                  | Some b -> { prm with prm_ty = widen_ty prm.prm_ty b }
                  | None -> prm)
                pr.prc_params;
          })
        p.p_procs;
  }

(* Every declaration's type, keyed by locus, for before/after diffing. *)
let all_decls p =
  List.map (fun (v : var_decl) -> ((Lvar, v.v_name), v.v_ty)) p.p_vars
  @ List.map (fun (s : sig_decl) -> ((Lsig, s.s_name), s.s_ty)) p.p_signals
  @ Behavior.fold
      (fun acc b ->
        List.map
          (fun (v : var_decl) -> ((Lbvar b.b_name, v.v_name), v.v_ty))
          b.b_vars
        @ acc)
      [] p.p_top
  @ List.concat_map
      (fun pr ->
        List.map
          (fun (v : var_decl) -> ((Lpvar pr.prc_name, v.v_name), v.v_ty))
          pr.prc_vars
        @ List.map
            (fun prm -> ((Lparam pr.prc_name, prm.prm_name), prm.prm_ty))
            pr.prc_params)
      p.p_procs

let fix_width ~poll ~original current =
  (* Widen to a fixpoint: widening one declaration widens the inferred
     width of its references, which can surface a new narrowing
     downstream.  Widths only grow and are bounded by the widest width
     in the program, so this terminates; the cap is a backstop. *)
  let rec go n p =
    if n >= 32 then p
    else
      match width_requirements p with
      | [] -> p
      | reqs -> go (n + 1) (apply_widths reqs p)
  in
  let candidate = go 0 current in
  if equal_program candidate current then (current, [], [])
  else
    let changes =
      let before = all_decls current in
      List.filter_map
        (fun (key, ty) ->
          match List.assoc_opt key before with
          | Some ty0 when ty0 <> ty -> Some (key, ty0, ty)
          | _ -> None)
        (all_decls candidate)
    in
    match gate ~poll ~original ~code:"WIDTH001" candidate with
    | Ok fixed ->
      ( fixed,
        List.map
          (fun ((_, name), t0, t1) ->
            {
              fx_code = "WIDTH001";
              fx_loc = name;
              fx_note =
                Printf.sprintf "widened %s from %d to %d bits" name
                  (ty_width t0) (ty_width t1);
            })
          changes,
        [] )
    | Error reason ->
      ( current,
        [],
        [
          {
            fr_code = "WIDTH001";
            fr_loc =
              String.concat ", " (List.map (fun ((_, n), _, _) -> n) changes);
            fr_reason = reason;
          };
        ] )

(* --- PROTO003: inline undriven signals ---------------------------------- *)

let proto_signals p =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if String.equal d.Diagnostic.d_code "PROTO003" then
        Some d.Diagnostic.d_loc
      else None)
    (Registry.run p)
  |> List.sort_uniq String.compare

(* Replace every read of signal [s] with the constant [v], respecting
   shadowing (a behavior local or procedure parameter/local named [s]
   hides the signal in its scope), and drop the declaration. *)
let subst_signal s v p =
  let subst_e e = Expr.subst s (Const v) e in
  let shadows decls =
    List.exists (fun (d : var_decl) -> String.equal d.v_name s) decls
  in
  let rec beh b =
    if shadows b.b_vars then b
    else
      let body =
        match b.b_body with
        | Leaf stmts -> Leaf (Stmt.map_exprs subst_e stmts)
        | Par children -> Par (List.map beh children)
        | Seq arms ->
          Seq
            (List.map
               (fun a ->
                 {
                   a_behavior = beh a.a_behavior;
                   a_transitions =
                     List.map
                       (fun t ->
                         { t with t_cond = Option.map subst_e t.t_cond })
                       a.a_transitions;
                 })
               arms)
      in
      { b with b_body = body }
  in
  let proc pr =
    if
      shadows pr.prc_vars
      || List.exists
           (fun prm -> String.equal prm.prm_name s)
           pr.prc_params
    then pr
    else { pr with prc_body = Stmt.map_exprs subst_e pr.prc_body }
  in
  {
    p with
    p_top = beh p.p_top;
    p_procs = List.map proc p.p_procs;
    p_signals =
      List.filter
        (fun (sd : sig_decl) -> not (String.equal sd.s_name s))
        p.p_signals;
  }

(* Drop waits whose condition became constant-true; flag ones that
   became constant-false (the wait could never be satisfied). *)
let drop_true_waits ~unsat stmts =
  Stmt.map_stmts
    (fun st ->
      match st with
      | Wait_until c -> (
        match Expr.eval_const c with
        | Some (VBool true) -> []
        | Some (VBool false) ->
          unsat := true;
          [ st ]
        | _ -> [ st ])
      | _ -> [ st ])
    stmts

let fix_proto ~poll ~original current =
  let signals = proto_signals current in
  let p, applied, refused =
    List.fold_left
      (fun (p, applied, refused) s ->
        let refuse reason =
          ( p,
            applied,
            { fr_code = "PROTO003"; fr_loc = s; fr_reason = reason }
            :: refused )
        in
        match Program.lookup_signal p s with
        | None -> refuse "signal declaration not found"
        | Some sd -> (
          let v =
            match sd.s_init with
            | Some v -> v
            | None -> default_value sd.s_ty
          in
          let candidate = subst_signal s v p in
          let unsat = ref false in
          let candidate =
            {
              candidate with
              p_top =
                Behavior.map_leaf_stmts (drop_true_waits ~unsat)
                  candidate.p_top;
              p_procs =
                List.map
                  (fun pr ->
                    { pr with prc_body = drop_true_waits ~unsat pr.prc_body })
                  candidate.p_procs;
            }
          in
          if !unsat then
            refuse
              "a wait on the signal can never be satisfied at its initial \
               value"
          else
            match gate ~poll ~original ~code:"PROTO003" ~loc:s candidate with
            | Ok fixed ->
              ( fixed,
                {
                  fx_code = "PROTO003";
                  fx_loc = s;
                  fx_note =
                    Printf.sprintf
                      "inlined undriven signal %s as constant %s and \
                       removed its declaration"
                      s
                      (Expr.to_string (Const v));
                }
                :: applied,
                refused )
            | Error reason -> refuse reason))
      (current, [], []) signals
  in
  (p, List.rev applied, List.rev refused)

(* --- CONT001: synthesize an arbiter ------------------------------------- *)

let used_names p =
  let tbl = Hashtbl.create 64 in
  let add n = Hashtbl.replace tbl n () in
  List.iter (fun (v : var_decl) -> add v.v_name) p.p_vars;
  List.iter (fun (s : sig_decl) -> add s.s_name) p.p_signals;
  List.iter
    (fun pr ->
      add pr.prc_name;
      List.iter (fun prm -> add prm.prm_name) pr.prc_params;
      List.iter (fun (v : var_decl) -> add v.v_name) pr.prc_vars)
    p.p_procs;
  Behavior.fold
    (fun () b ->
      add b.b_name;
      List.iter (fun (v : var_decl) -> add v.v_name) b.b_vars)
    () p.p_top;
  tbl

let fresh used base =
  let claim n =
    Hashtbl.replace used n ();
    n
  in
  if not (Hashtbl.mem used base) then claim base
  else
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if Hashtbl.mem used cand then go (i + 1) else claim cand
    in
    go 1

(* --- PROTO002: synthesize the missing handshake end --------------------- *)

let proto2_signals p =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if String.equal d.Diagnostic.d_code "PROTO002" then
        Some d.Diagnostic.d_loc
      else None)
    (Registry.run p)
  |> List.sort_uniq String.compare

let fix_proto2 ~poll ~original current =
  let signals = proto2_signals current in
  let p, applied, refused =
    List.fold_left
      (fun (p, applied, refused) s ->
        let refuse reason =
          ( p,
            applied,
            { fr_code = "PROTO002"; fr_loc = s; fr_reason = reason }
            :: refused )
        in
        match Program.lookup_signal p s with
        | None -> refuse "signal declaration not found"
        | Some sd -> (
          match p.p_top.b_body with
          | Leaf _ | Seq _ ->
            refuse
              "the top-level behavior is not a parallel composition the \
               observer could join"
          | Par children -> (
            let v =
              match sd.s_init with
              | Some v -> v
              | None -> default_value sd.s_ty
            in
            let used = used_names p in
            let obs_name = fresh used ("OBS_" ^ s) in
            (* The missing handshake end, made passive: wait for the
               signal to leave its rest value, then to return — one
               transaction per iteration.  The observer never drives
               anything, so behavior is unchanged; registering it as a
               perpetual server exempts it from completion and from the
               race passes, like any protocol endpoint. *)
            let obs =
              Behavior.leaf obs_name
                [
                  While
                    ( Expr.tru,
                      [
                        Wait_until (Binop (Neq, Ref s, Const v));
                        Wait_until (Binop (Eq, Ref s, Const v));
                      ] );
                ]
            in
            let candidate =
              {
                p with
                p_top = { p.p_top with b_body = Par (children @ [ obs ]) };
                p_servers = p.p_servers @ [ obs_name ];
              }
            in
            match gate ~poll ~original ~code:"PROTO002" ~loc:s candidate with
            | Ok fixed ->
              ( fixed,
                {
                  fx_code = "PROTO002";
                  fx_loc = s;
                  fx_note =
                    Printf.sprintf
                      "synthesized passive observer %s for driven-but-never-\
                       observed signal %s"
                      obs_name s;
                }
                :: applied,
                refused )
            | Error reason -> refuse reason)))
      (current, [], []) signals
  in
  (p, List.rev applied, List.rev refused)

let fix_cont ~poll ~original current =
  let ctx = Pass.make_ctx ~phase:(Pass.infer_phase current) current in
  let buses =
    List.filter
      (fun b ->
        List.length b.Contention.bus_regions >= 2
        && b.Contention.bus_offenders <> [])
      (Contention.analyze ctx)
  in
  let fix_bus p (bus : Contention.bus) =
    let addr = bus.Contention.bus_addr in
    if
      List.length bus.Contention.bus_offenders
      <> List.length bus.Contention.bus_callers
    then
      Error
        "some callers already hold a grant; refusing to mix a synthesized \
         arbiter with existing arbitration"
    else
      (* The arbiter must join the parallel composition the contending
         regions are children of. *)
      let parents =
        List.sort_uniq String.compare
          (List.filter_map
             (fun site ->
               match Behavior.parent_of site.Pass.st_region p.p_top with
               | Some parent -> Some parent.b_name
               | None -> None)
             bus.Contention.bus_callers)
      in
      match parents with
      | [ parent_name ]
        when List.length
               (List.filter_map
                  (fun site ->
                    Behavior.parent_of site.Pass.st_region p.p_top)
                  bus.Contention.bus_callers)
             = List.length bus.Contention.bus_callers -> (
        let used = used_names p in
        let wires =
          List.map
            (fun site ->
              let b = site.Pass.st_behavior in
              (b, fresh used ("arb_req_" ^ b), fresh used ("arb_gnt_" ^ b)))
            bus.Contention.bus_offenders
        in
        let arb_name = fresh used ("ARB_" ^ addr) in
        (* Wrap each offending leaf in acquire/release. *)
        let wrap p (bname, req, gnt) =
          match Program.lookup_behavior p bname with
          | Some ({ b_body = Leaf stmts; _ } as b) ->
            let wrapped =
              Signal_assign (req, Expr.tru)
              :: Wait_until (Ref gnt)
              :: stmts
              @ [
                  Signal_assign (req, Expr.fls);
                  Wait_until (Unop (Not, Ref gnt));
                ]
            in
            Ok
              {
                p with
                p_top =
                  Behavior.replace bname
                    { b with b_body = Leaf wrapped }
                    p.p_top;
              }
          | Some _ -> Error (bname ^ " is not a leaf behavior")
          | None -> Error (bname ^ " not found")
        in
        let rec wrap_all p = function
          | [] -> Ok p
          | w :: rest -> (
            match wrap p w with
            | Ok p -> wrap_all p rest
            | Error _ as e -> e)
        in
        match wrap_all p wires with
        | Error e -> Error e
        | Ok p ->
          (* One grant at a time, requesters served in site preorder. *)
          let grant_arm (_, req, gnt) =
            ( Ref req,
              [
                Signal_assign (gnt, Expr.tru);
                Wait_until (Unop (Not, Ref req));
                Signal_assign (gnt, Expr.fls);
              ] )
          in
          let any_req =
            match wires with
            | (_, r, _) :: rest ->
              List.fold_left
                (fun e (_, r', _) -> Binop (Or, e, Ref r'))
                (Ref r) rest
            | [] -> Expr.fls
          in
          let arb =
            Behavior.leaf arb_name
              [
                While
                  ( Expr.tru,
                    [
                      If
                        ( List.map grant_arm wires,
                          [ Wait_until any_req ] );
                    ] );
              ]
          in
          let p_top =
            Behavior.map
              (fun b ->
                if String.equal b.b_name parent_name then
                  match b.b_body with
                  | Par children -> { b with b_body = Par (children @ [ arb ]) }
                  | Leaf _ | Seq _ -> b
                else b)
              p.p_top
          in
          let new_sigs =
            List.concat_map
              (fun (_, r, g) ->
                [
                  { s_name = r; s_ty = TBool; s_init = Some (VBool false) };
                  { s_name = g; s_ty = TBool; s_init = Some (VBool false) };
                ])
              wires
          in
          Ok
            ( {
                p with
                p_top;
                p_signals = p.p_signals @ new_sigs;
                p_servers = p.p_servers @ [ arb_name ];
              },
              arb_name,
              List.length wires ))
      | _ ->
        Error
          "the contending regions are not children of one parallel \
           composition"
  in
  let p, applied, refused =
    List.fold_left
      (fun (p, applied, refused) bus ->
        let addr = bus.Contention.bus_addr in
        let refuse reason =
          ( p,
            applied,
            { fr_code = "CONT001"; fr_loc = addr; fr_reason = reason }
            :: refused )
        in
        match fix_bus p bus with
        | Error reason -> refuse reason
        | Ok (candidate, arb_name, n) -> (
          match gate ~poll ~original ~code:"CONT001" ~loc:addr candidate with
          | Ok fixed ->
            ( fixed,
              {
                fx_code = "CONT001";
                fx_loc = addr;
                fx_note =
                  Printf.sprintf
                    "serialized %d caller(s) of bus %s behind synthesized \
                     arbiter %s"
                    n addr arb_name;
              }
              :: applied,
              refused )
          | Error reason -> refuse reason))
      (current, [], []) buses
  in
  (p, List.rev applied, List.rev refused)

(* --- driver -------------------------------------------------------------- *)

let fix ?(codes = fixable_codes) ?(poll = fun () -> false) (p0 : program) =
  let want c = List.exists (String.equal c) codes in
  let step code f (p, applied, refused) =
    if want code then
      let p', a, r = f ~poll ~original:p0 p in
      (p', applied @ a, refused @ r)
    else (p, applied, refused)
  in
  let p, applied, refused =
    (p0, [], [])
    |> step "WIDTH001" fix_width
    |> step "PROTO003" fix_proto
    |> step "PROTO002" fix_proto2
    |> step "CONT001" fix_cont
  in
  {
    x_program = p;
    x_source = Printer.program_to_string p;
    x_applied = applied;
    x_refused = refused;
    x_changed = not (equal_program p p0);
  }
