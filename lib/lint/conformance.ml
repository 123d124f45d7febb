(** Protocol-conformance pass.

    Checks the handshake structure refinement relies on: every bus
    transaction issued through a master procedure must target an address
    some slave statically decodes ([PROTO001]), and every handshake wire
    must have both ends — a driven signal somebody observes ([PROTO002],
    catching a [B_start] with no [B_NEW] waiter) and an observed signal
    somebody drives ([PROTO003], catching a missing [B_done] reply).

    [PROTO001] is always an error: a master procedure addressing a slave
    nobody implements is broken in any phase.  The pairing checks follow
    the phase policy (warning pre-refinement, error post-refinement),
    since an input spec may legitimately declare wires it only uses
    after later manual steps. *)

open Spec
open Ast

let codes =
  [
    ("PROTO001", "bus transaction address not decoded by any slave");
    ("PROTO002", "signal driven but never observed (unpaired handshake)");
    ("PROTO003", "signal waited on but never driven");
  ]

let run (ctx : Pass.t) =
  let p = ctx.Pass.lc_program in
  let severity = Pass.severity_for_phase ctx.Pass.lc_phase in
  (* Master procedure -> its address signal, and every address
     signal's decodes: one lookup per master call. *)
  let masters = Pass.master_procs ctx in
  let master_of = Names.bind masters Names.Map.empty in
  let addr_sigs = Names.Set.of_list (List.map snd masters) in
  let decodes_of =
    List.fold_left
      (fun m (s, sv) ->
        let svs = Option.value (Names.Map.find_opt s m) ~default:[] in
        Names.Map.add s (sv :: svs) m)
      Names.Map.empty (Pass.served_addresses ctx)
  in
  (* A bus interface (Model4's BIF) decodes no constants: it forwards
     the incoming address wholesale onto another bus.  A bus whose
     address signal feeds the address argument of some master call is
     therefore served for every address. *)
  let forwarded =
    List.fold_left
      (fun acc site ->
        List.fold_left
          (fun acc (callee, args) ->
            match (Names.Map.mem callee master_of, args) with
            | true, Arg_expr e :: _ ->
              List.fold_left
                (fun acc x ->
                  if Names.Set.mem x addr_sigs then Names.Set.add x acc
                  else acc)
                acc (Expr.refs e)
            | _ -> acc)
          acc site.Pass.st_calls)
      Names.Set.empty ctx.Pass.lc_sites
  in
  (* PROTO001: constant-address master calls against the decode table. *)
  let addr_checks =
    List.fold_left
      (fun acc site ->
        List.fold_left
          (fun acc (callee, args) ->
            match (Names.Map.find_opt callee master_of, args) with
            | Some addr_sig, Arg_expr e :: _
              when not (Names.Set.mem addr_sig forwarded) ->
              let decodes =
                Option.value (Names.Map.find_opt addr_sig decodes_of)
                  ~default:[]
              in
              begin match Expr.eval_const e with
              | Some (VInt k) when decodes = [] ->
                Diagnostic.makef ~code:"PROTO001"
                  ~severity:Diagnostic.Error ~pass:"conformance"
                  ~path:site.Pass.st_path ~loc:(Expr.to_string e)
                  "call to %s addresses %d on bus %s, but no slave decodes \
                   any address on that bus"
                  callee k addr_sig
                :: acc
              | Some (VInt k)
                when not (List.exists (Pass.serves k) decodes) ->
                Diagnostic.makef ~code:"PROTO001"
                  ~severity:Diagnostic.Error ~pass:"conformance"
                  ~path:site.Pass.st_path ~loc:(Expr.to_string e)
                  "call to %s addresses %d on bus %s, which no slave decodes"
                  callee k addr_sig
                :: acc
              | _ -> acc
              end
            | _ -> acc)
          acc site.Pass.st_calls)
      [] ctx.Pass.lc_sites
  in
  (* Global drive/observe maps over behaviors, TOC conditions and
     procedure bodies. *)
  let driven = Hashtbl.create 16 and observed = Hashtbl.create 16 in
  let waited = Hashtbl.create 16 in
  List.iter
    (fun site ->
      List.iter (fun s -> Hashtbl.replace driven s ()) site.Pass.st_sig_writes;
      List.iter (fun s -> Hashtbl.replace observed s ()) site.Pass.st_sig_reads;
      List.iter
        (fun c ->
          List.iter
            (fun x -> if Pass.is_signal ctx x then Hashtbl.replace waited x ())
            (Expr.refs c))
        site.Pass.st_waits)
    ctx.Pass.lc_sites;
  List.iter
    (fun pr ->
      let written, read = Pass.proc_signal_uses ctx pr in
      List.iter (fun s -> Hashtbl.replace driven s ()) written;
      List.iter (fun s -> Hashtbl.replace observed s ()) read;
      List.iter
        (fun c ->
          List.iter
            (fun x -> if Pass.is_signal ctx x then Hashtbl.replace waited x ())
            (Expr.refs c))
        (Pass.waits_of_stmts [] pr.prc_body))
    p.p_procs;
  let pairing =
    List.fold_left
      (fun acc (sd : sig_decl) ->
        let s = sd.s_name in
        let is_driven = Hashtbl.mem driven s in
        let is_observed = Hashtbl.mem observed s in
        let acc =
          if is_driven && not is_observed then
            Diagnostic.makef ~code:"PROTO002" ~severity ~pass:"conformance"
              ~loc:s
              "signal %s is driven but never observed (unpaired handshake)" s
            :: acc
          else acc
        in
        if Hashtbl.mem waited s && not is_driven then
          Diagnostic.makef ~code:"PROTO003" ~severity ~pass:"conformance"
            ~loc:s "signal %s is waited on but never driven" s
          :: acc
        else acc)
      [] p.p_signals
  in
  addr_checks @ pairing

let pass = { Pass.p_name = "conformance"; p_codes = codes; p_run = run }
