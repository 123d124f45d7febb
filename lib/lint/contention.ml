(** Bus-contention pass.

    The paper's arbiter rule, applied structurally: when the master
    procedures of one bus are called from two or more distinct parallel
    regions, every caller must hold an arbitration grant around its
    transactions.  {!Core.Check} enforces the same rule exactly on a
    refinement result (it knows the requester lists); this pass
    re-derives it from program text alone, so it also covers
    hand-written or externally produced specs.

    Grant detection is a structural heuristic: an acquiring leaf both
    drives a request wire (a signal assignment outside the bus's wire
    set) and blocks on a grant wire (a [wait until] reading a signal
    outside the bus's wire set) — the shape of
    {!Core.Arbiter.acquire}.  A leaf that calls the bus without either
    is reported under [CONT001]. *)

open Spec

let codes =
  [
    ("CONT001", "multi-master bus without arbitration around its calls");
    ("CONT002", "arbiter on a single-master bus");
  ]

(** One bus with its call sites, as the pass (and the fixer) see it. *)
type bus = {
  bus_addr : string;
  bus_regions : string list;  (** distinct caller regions, sorted *)
  bus_callers : Pass.site list;  (** every calling site, preorder *)
  bus_offenders : Pass.site list;  (** callers holding no grant *)
}

let analyze (ctx : Pass.t) =
  let masters = Pass.master_procs ctx in
  (* Group master procedures into buses by address signal. *)
  let buses =
    List.sort_uniq String.compare (List.map snd masters)
    |> List.map (fun addr ->
           ( addr,
             List.filter (fun (_, a) -> String.equal a addr) masters ))
  in
  List.map
    (fun (addr, procs) ->
      let proc_names = List.map fst procs in
      let bus_sigs = Pass.bus_signal_set ctx ~addr ~procs in
      let callers =
        List.filter
          (fun site ->
            List.exists
              (fun (callee, _) -> List.mem callee proc_names)
              site.Pass.st_calls)
          ctx.Pass.lc_sites
      in
      let regions =
        List.sort_uniq String.compare
          (List.map (fun s -> s.Pass.st_region) callers)
      in
      let holds_grant site =
        let drives_request =
          List.exists
            (fun s -> not (List.mem s bus_sigs))
            site.Pass.st_sig_writes
        in
        let blocks_on_grant =
          List.exists
            (fun c ->
              List.exists
                (fun x -> Pass.is_signal ctx x && not (List.mem x bus_sigs))
                (Expr.refs c))
            site.Pass.st_waits
        in
        drives_request && blocks_on_grant
      in
      {
        bus_addr = addr;
        bus_regions = regions;
        bus_callers = callers;
        bus_offenders = List.filter (fun s -> not (holds_grant s)) callers;
      })
    buses

let run (ctx : Pass.t) =
  List.concat_map
    (fun b ->
      let addr = b.bus_addr and regions = b.bus_regions in
      let holds_grant site = not (List.memq site b.bus_offenders) in
      let callers = b.bus_callers in
      if List.length regions < 2 then begin
        (* One concurrent region (or none): arbitration around the calls
           is pure overhead — the structural side of {!Core.Check}'s
           CONT002, derivable from program text alone. *)
        match List.filter holds_grant callers with
        | [] -> []
        | grantees ->
          [
            Diagnostic.makef ~code:"CONT002" ~severity:Diagnostic.Warning
              ~pass:"contention" ~loc:addr
              "bus %s is mastered from a single parallel region but %s \
               around an arbitration grant nobody contends for"
              addr
              (match grantees with
              | [ g ] -> Printf.sprintf "%s wraps its calls" g.Pass.st_behavior
              | gs ->
                Printf.sprintf "%s wrap their calls"
                  (String.concat ", "
                     (List.sort_uniq String.compare
                        (List.map (fun g -> g.Pass.st_behavior) gs))));
          ]
      end
      else
        let offenders =
          List.filter (fun s -> not (holds_grant s)) callers
        in
        if offenders = [] then []
        else
          [
            Diagnostic.makef ~code:"CONT001" ~severity:Diagnostic.Error
              ~pass:"contention" ~loc:addr
              "bus %s is mastered from %d parallel regions (%s) but %s \
               without acquiring an arbitration grant"
              addr (List.length regions)
              (String.concat ", " regions)
              (match offenders with
              | [ o ] -> Printf.sprintf "%s calls it" o.Pass.st_behavior
              | os ->
                Printf.sprintf "%s call it"
                  (String.concat ", "
                     (List.sort_uniq String.compare
                        (List.map (fun o -> o.Pass.st_behavior) os))));
          ])
    (analyze ctx)

let pass = { Pass.p_name = "contention"; p_codes = codes; p_run = run }
