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

(* Accesses of the non-server sites under one child subtree, as maps
   from decl key to (display name, leaf) for readers and writers, and
   from signal to leaf for drivers; the first access found wins.  With a
   flow summary, a leaf site contributes only the accesses at CFG nodes
   the interval analysis proves reachable — two accesses race only when
   both can actually execute; TOC guard reads are kept as-is. *)
let child_accesses ?flow sites child =
  let in_child s =
    (not s.Pass.st_server)
    && List.exists (String.equal child) s.Pass.st_path
  in
  let sites = List.filter in_child sites in
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

(* The keys of the given maps, sorted and without duplicates. *)
let key_union maps =
  Names.Set.elements
    (List.fold_left
       (fun acc m -> Names.Map.fold (fun k _ acc -> Names.Set.add k acc) m acc)
       Names.Set.empty maps)

let run (ctx : Pass.t) =
  let severity = Pass.severity_for_phase ctx.Pass.lc_phase in
  Behavior.fold
    (fun acc b ->
      match b.b_body with
      | Par children when List.length children >= 2 ->
        let per_child =
          List.map
            (fun c ->
              ( c.b_name,
                child_accesses ?flow:ctx.Pass.lc_flow ctx.Pass.lc_sites
                  c.b_name ))
            children
        in
        (* Variable races: a writer in one child, any accessor in
           another. *)
        let keys =
          key_union
            (List.concat_map
               (fun (_, (reads, writes, _)) -> [ reads; writes ])
               per_child)
        in
        let acc =
          List.fold_left
            (fun acc key ->
              let accessors =
                List.filter
                  (fun (_, (reads, writes, _)) ->
                    Names.Map.mem key reads || Names.Map.mem key writes)
                  per_child
              in
              let writers =
                List.filter
                  (fun (_, (_, writes, _)) -> Names.Map.mem key writes)
                  per_child
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
                    per_child
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
            acc keys
        in
        (* Signal races: two concurrent drivers. *)
        let signals =
          key_union (List.map (fun (_, (_, _, sw)) -> sw) per_child)
        in
        List.fold_left
          (fun acc x ->
            let drivers =
              List.filter
                (fun (_, (_, _, sw)) -> Names.Map.mem x sw)
                per_child
            in
            match drivers with
            | (c1, (_, _, sw1)) :: (c2, (_, _, sw2)) :: _ ->
              Diagnostic.makef ~code:"RACE002" ~severity ~pass:"race"
                ~path:[ b.b_name ] ~loc:x
                "signal %s is driven from branches %s (%s) and %s (%s) of \
                 parallel composition %s"
                x c1 (Names.Map.find x sw1) c2 (Names.Map.find x sw2) b.b_name
              :: acc
            | _ -> acc)
          acc signals
      | _ -> acc)
    [] ctx.Pass.lc_program.p_top

let pass = { Pass.p_name = "race"; p_codes = codes; p_run = run }
