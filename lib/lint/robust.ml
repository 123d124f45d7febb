(** Robustness pass.

    [ROBUST001]: a refined design drives its buses through plain
    (unhardened) master procedures — no watchdog / bounded-retry
    machinery anywhere in their bodies.  That is perfectly fine for
    functional co-simulation, but when the design is about to face a
    fault-injection campaign, a single lost handshake edge deadlocks it;
    the hardened protocol variant ([--harden]) recovers instead.

    The pass is registered in the {!Registry} code table but not part of
    the default run list: it only makes sense in a fault-campaign
    context, so the [mrefine faults] driver opts in explicitly when a
    campaign is configured on an unhardened design. *)

open Spec
open Spec.Ast

let codes =
  [
    ( "ROBUST001",
      "unhardened handshake protocol under a fault campaign" );
  ]

(* Watchdog machinery is recognizable by its reserved marker emits
   (WDG_RETRY / WDG_ABORT) inside the loop bodies. *)
let rec stmts_emit_wdg stmts =
  List.exists
    (function
      | Emit (tag, _) ->
        String.length tag >= 4 && String.equal (String.sub tag 0 4) "WDG_"
      | If (branches, els) ->
        List.exists (fun (_, body) -> stmts_emit_wdg body) branches
        || stmts_emit_wdg els
      | While (_, body) | For (_, _, _, body) -> stmts_emit_wdg body
      | _ -> false)
    stmts

let run (ctx : Pass.t) =
  let p = ctx.Pass.lc_program in
  let masters = Pass.master_procs ctx in
  let soft =
    List.filter
      (fun (name, _) ->
        match List.find_opt (fun pr -> String.equal pr.prc_name name) p.p_procs with
        | Some pr -> not (stmts_emit_wdg pr.prc_body)
        | None -> false)
      masters
  in
  (* One diagnostic per bus (group by address signal), not per proc. *)
  let buses = List.sort_uniq String.compare (List.map snd soft) in
  List.map
    (fun addr ->
      let procs =
        List.filter_map
          (fun (name, a) -> if String.equal a addr then Some name else None)
          soft
      in
      Diagnostic.makef ~code:"ROBUST001" ~severity:Diagnostic.Warning
        ~pass:"robust" ~loc:addr
        "bus %s is driven by unhardened master protocol (%s) while a fault \
         campaign is configured; a single lost handshake edge deadlocks — \
         consider refining with --harden"
        addr
        (String.concat ", " procs))
    buses

let pass = { Pass.p_name = "robust"; p_codes = codes; p_run = run }
