(** Race detector.

    A {e variable} race is a declaration accessed from two different
    children of one parallel composition with at least one writer: the
    interleaving of immediate assignments is unconstrained, so the
    observable behavior depends on scheduling.  A {e signal} race needs
    two concurrent {e drivers} — concurrent signal reads are
    deterministic under delta-delay semantics, but the last driver in a
    delta wins.

    Accesses mediated by a protocol procedure do not count: [Call]
    arguments are read at the call site, but reads and writes inside the
    procedure body belong to the protocol (serialized by its handshake),
    which is exactly the mediation refinement introduces.  Subtrees
    registered as perpetual servers (memories, arbiters, bus interfaces)
    are exempt for the same reason: they are protocol endpoints whose
    accesses are serialized by the request/acknowledge wires.

    Severity follows the phase: a race in an unpartitioned input is what
    refinement will serialize (warning); the same race in refined output
    is a broken refinement (error). *)

open Spec
open Ast

let codes =
  [
    ("RACE001",
     "variable accessed from two parallel branches with at least one \
      writer and no mediating protocol");
    ("RACE002", "signal driven from two parallel branches");
    ("RACE003",
     "racy access whose outcome changes under relaxed port ordering \
      (litmus evidence)");
  ]

(* The non-server sites under each behavior, preorder: a site is filed
   under every behavior on its path, so a parallel child finds its
   sites in one lookup. *)
let sites_under (sites : Pass.site list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Pass.site) ->
      if not s.Pass.st_server then
        List.iter
          (fun b ->
            let under = Option.value (Hashtbl.find_opt tbl b) ~default:[] in
            match under with
            | s' :: _ when s' == s -> ()
            | _ -> Hashtbl.replace tbl b (s :: under))
          s.Pass.st_path)
    sites;
  fun b -> List.rev (Option.value (Hashtbl.find_opt tbl b) ~default:[])

(* Accesses of the given sites (one child subtree), as maps from decl
   key to (display name, leaf) for readers and writers, and from signal
   to leaf for drivers; the first access found wins.  With a flow
   summary, a leaf site contributes only the accesses at CFG nodes the
   interval analysis proves reachable — two accesses race only when
   both can actually execute; TOC guard reads are kept as-is. *)
let child_accesses ?flow sites =
  let accesses (s : Pass.site) =
    match flow with
    | Some fl when s.Pass.st_stmts <> [] -> (
      match Flow.leaf_at fl s.Pass.st_path with
      | Some li ->
        (li.Flow.li_var_reads, li.Flow.li_var_writes, li.Flow.li_sig_writes)
      | None -> (s.Pass.st_var_reads, s.Pass.st_var_writes, s.Pass.st_sig_writes))
    | _ -> (s.Pass.st_var_reads, s.Pass.st_var_writes, s.Pass.st_sig_writes)
  in
  let sites = List.map (fun s -> (s, accesses s)) sites in
  let first key v m =
    if Names.Map.mem key m then m else Names.Map.add key v m
  in
  let vars field =
    List.fold_left
      (fun acc (s, acs) ->
        List.fold_left
          (fun acc (key, name) -> first key (name, s.Pass.st_behavior) acc)
          acc (field acs))
      Names.Map.empty sites
  in
  let reads = vars (fun (r, _, _) -> r) in
  let writes = vars (fun (_, w, _) -> w) in
  let sig_writes =
    List.fold_left
      (fun acc (s, (_, _, sw)) ->
        List.fold_left (fun acc x -> first x s.Pass.st_behavior acc) acc sw)
      Names.Map.empty sites
  in
  (reads, writes, sig_writes)

(* For every key of the per-child maps [field] selects, the children
   whose map holds it, in child order; keys in [String.compare] order. *)
let holders per_child field =
  let index =
    List.fold_left
      (fun index ((_, accesses) as child) ->
        List.fold_left
          (fun index m ->
            Names.Map.fold
              (fun key _ index ->
                let cs =
                  Option.value (Names.Map.find_opt key index) ~default:[]
                in
                match cs with
                | c :: _ when c == child -> index
                | _ -> Names.Map.add key (child :: cs) index)
              m index)
          index (field accesses))
      Names.Map.empty per_child
  in
  Names.Map.bindings (Names.Map.map List.rev index)

let run (ctx : Pass.t) =
  let severity = Pass.severity_for_phase ctx.Pass.lc_phase in
  let under = sites_under ctx.Pass.lc_sites in
  Behavior.fold
    (fun acc b ->
      match b.b_body with
      | Par children when List.length children >= 2 ->
        let per_child =
          List.map
            (fun c ->
              ( c.b_name,
                child_accesses ?flow:ctx.Pass.lc_flow (under c.b_name) ))
            children
        in
        (* Variable races: a writer in one child, any accessor in
           another. *)
        let acc =
          List.fold_left
            (fun acc (key, accessors) ->
              let writers =
                List.filter
                  (fun (_, (_, writes, _)) -> Names.Map.mem key writes)
                  accessors
              in
              match (writers, accessors) with
              | (wc, (_, ww, _)) :: _, _ :: _ :: _ ->
                let name, writer_leaf = Names.Map.find key ww in
                let other =
                  List.find_map
                    (fun (c, (reads, writes, _)) ->
                      if String.equal c wc then None
                      else
                        match
                          ( Names.Map.find_opt key reads,
                            Names.Map.find_opt key writes )
                        with
                        | Some (_, leaf), _ | None, Some (_, leaf) ->
                          Some (c, leaf)
                        | None, None -> None)
                    accessors
                in
                begin match other with
                | None -> acc  (* all accesses in the writing child *)
                | Some (oc, other_leaf) ->
                  Diagnostic.makef ~code:"RACE001" ~severity ~pass:"race"
                    ~path:[ b.b_name ] ~loc:name
                    "variable %s is written in branch %s (%s) and accessed \
                     in branch %s (%s) of parallel composition %s with no \
                     mediating protocol"
                    name wc writer_leaf oc other_leaf b.b_name
                  :: acc
                end
              | _ -> acc)
            acc
            (holders per_child (fun (reads, writes, _) -> [ reads; writes ]))
        in
        (* Signal races: two concurrent drivers. *)
        List.fold_left
          (fun acc (x, drivers) ->
            match drivers with
            | (c1, (_, _, sw1)) :: (c2, (_, _, sw2)) :: _ ->
              Diagnostic.makef ~code:"RACE002" ~severity ~pass:"race"
                ~path:[ b.b_name ] ~loc:x
                "signal %s is driven from branches %s (%s) and %s (%s) of \
                 parallel composition %s"
                x c1 (Names.Map.find x sw1) c2 (Names.Map.find x sw2) b.b_name
              :: acc
            | _ -> acc)
          acc
          (holders per_child (fun (_, _, sw) -> [ sw ]))
      | _ -> acc)
    [] ctx.Pass.lc_program.p_top

let pass = { Pass.p_name = "race"; p_codes = codes; p_run = run }
