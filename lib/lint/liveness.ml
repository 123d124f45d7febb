(** Liveness / usage pass.

    Structural usage checks, all warnings: storage nobody touches
    ([LIVE001]), wires nobody drives or reads ([LIVE002]), sequential
    arms no chain of TOC arcs or fall-throughs can reach ([LIVE003]),
    and variables that are read somewhere but never written anywhere
    and carry no initializer ([LIVE004] — the read can only ever see
    the type's default value).

    With a flow summary in the context ([lc_flow]), the pass becomes
    flow-sensitive: LIVE001/LIVE004 count only accesses at CFG nodes the
    interval analysis proves reachable (a read inside a branch that can
    never be taken no longer keeps a variable "live"), LIVE003
    additionally prunes TOC transitions whose guard is always false
    under the program-wide constants, and two new diagnostics appear:
    dead stores ([LIVE005], a reachable assignment whose value is
    overwritten before any read along every feasible path) and unread
    writes ([LIVE006], a variable that is written but never read —
    [for] counters exempt). *)

open Spec
open Ast

let codes =
  [
    ("LIVE001", "variable is never accessed");
    ("LIVE002", "signal is never driven nor read");
    ("LIVE003", "behavior is unreachable in its sequential composition");
    ("LIVE004", "variable read but never written, with no initializer");
    ("LIVE005", "assignment is dead: overwritten before any read (flow)");
    ("LIVE006", "variable is written but never read (flow)");
  ]

let warn = Diagnostic.Warning

let run (ctx : Pass.t) =
  let p = ctx.Pass.lc_program in
  let fl = ctx.Pass.lc_flow in
  let reads = Hashtbl.create 32 and writes = Hashtbl.create 32 in
  (* With flow on, a leaf site's accesses are the ones at reachable CFG
     nodes; TOC sites keep their guard reads either way. *)
  let site_accesses (site : Pass.site) =
    match fl with
    | Some s when site.Pass.st_stmts <> [] -> (
      match Flow.leaf_at s site.Pass.st_path with
      | Some li -> (li.Flow.li_var_reads, li.Flow.li_var_writes)
      | None -> (site.Pass.st_var_reads, site.Pass.st_var_writes))
    | _ -> (site.Pass.st_var_reads, site.Pass.st_var_writes)
  in
  List.iter
    (fun site ->
      let rs, ws = site_accesses site in
      List.iter (fun (key, _) -> Hashtbl.replace reads key ()) rs;
      List.iter (fun (key, _) -> Hashtbl.replace writes key ()) ws)
    ctx.Pass.lc_sites;
  let var_checks key name ~owner ~init acc =
    let is_read = Hashtbl.mem reads key and is_written = Hashtbl.mem writes key in
    let where =
      match owner with
      | None -> "program variable"
      | Some b -> Printf.sprintf "variable (local to %s)" b
    in
    let path = match owner with None -> [] | Some b -> [ b ] in
    if (not is_read) && not is_written then
      Diagnostic.makef ~code:"LIVE001" ~severity:warn ~pass:"liveness" ~path
        ~loc:name "%s %s is never accessed" where name
      :: acc
    else if is_read && (not is_written) && init = None then
      Diagnostic.makef ~code:"LIVE004" ~severity:warn ~pass:"liveness" ~path
        ~loc:name
        "%s %s is read but never written and has no initializer" where name
      :: acc
    else
      match fl with
      | Some s
        when is_written && (not is_read) && not (Flow.is_for_counter s key) ->
        Diagnostic.makef ~code:"LIVE006" ~severity:warn ~pass:"liveness" ~path
          ~loc:name "%s %s is written but its value is never read" where name
        :: acc
      | _ -> acc
  in
  let acc =
    List.fold_left
      (fun acc (v : var_decl) ->
        var_checks v.v_name v.v_name ~owner:None ~init:v.v_init acc)
      [] p.p_vars
  in
  let acc =
    List.fold_left
      (fun acc (owner, (v : var_decl)) ->
        var_checks
          (owner ^ "." ^ v.v_name)
          v.v_name ~owner:(Some owner) ~init:v.v_init acc)
      acc
      (Behavior.all_var_decls p.p_top)
  in
  (* Dead signals: neither driven nor read anywhere (procedure bodies
     included).  Partial uses are the conformance pass's business. *)
  let sig_used = Hashtbl.create 16 in
  List.iter
    (fun site ->
      List.iter (fun s -> Hashtbl.replace sig_used s ()) site.Pass.st_sig_writes;
      List.iter (fun s -> Hashtbl.replace sig_used s ()) site.Pass.st_sig_reads)
    ctx.Pass.lc_sites;
  List.iter
    (fun pr ->
      let written, read = Pass.proc_signal_uses ctx pr in
      List.iter (fun s -> Hashtbl.replace sig_used s ()) (written @ read))
    p.p_procs;
  let acc =
    List.fold_left
      (fun acc (sd : sig_decl) ->
        if Hashtbl.mem sig_used sd.s_name then acc
        else
          Diagnostic.makef ~code:"LIVE002" ~severity:warn ~pass:"liveness"
            ~loc:sd.s_name "signal %s is never driven nor read" sd.s_name
          :: acc)
      acc p.p_signals
  in
  (* Dead stores, straight from the flow summary. *)
  let acc =
    match fl with
    | None -> acc
    | Some s ->
      List.fold_left
        (fun acc (_, (li : Flow.leaf_info)) ->
          List.fold_left
            (fun acc (_, x) ->
              Diagnostic.makef ~code:"LIVE005" ~severity:warn ~pass:"liveness"
                ~path:li.Flow.li_path ~loc:x
                "assignment to %s in %s stores a value that is overwritten \
                 before any read"
                x li.Flow.li_behavior
              :: acc)
            acc li.Flow.li_dead_stores)
        acc s.fl_leaves
  in
  (* Unreachable sequential arms: fixpoint over fall-throughs (an arm
     with no transitions) and Goto targets.  The structural half treats
     every transition as takable; with flow on, a second pass prunes
     transitions whose guard is always false under the program-wide
     constants and reports the extra arms that become unreachable. *)
  Behavior.fold
    (fun acc b ->
      match b.b_body with
      | Seq arms ->
        let arms = Array.of_list arms in
        let n = Array.length arms in
        (* The first arm of each name, as a left-to-right scan finds it. *)
        let index =
          Names.bind
            (List.mapi (fun i a -> (a.a_behavior.b_name, i)) (Array.to_list arms))
            Names.Map.empty
        in
        let index_of name = Names.Map.find_opt name index in
        let reach_with takable =
          let reachable = Array.make n false in
          let rec visit i =
            if i < n && not reachable.(i) then begin
              reachable.(i) <- true;
              match List.filter takable arms.(i).a_transitions with
              | [] when arms.(i).a_transitions = [] -> visit (i + 1)
              | ts ->
                List.iter
                  (fun tr ->
                    match tr.t_target with
                    | Goto tgt ->
                      (match index_of tgt with Some j -> visit j | None -> ())
                    | Complete -> ())
                  ts
            end
          in
          if n > 0 then visit 0;
          reachable
        in
        let base = reach_with (fun _ -> true) in
        let flow_reach =
          match fl with
          | None -> base
          | Some s ->
            reach_with (fun tr ->
                match tr.t_cond with
                | Some c -> Flow.cond_value s c <> Some false
                | None -> true)
        in
        let acc = ref acc in
        Array.iteri
          (fun i reached ->
            if not reached then
              acc :=
                Diagnostic.makef ~code:"LIVE003" ~severity:warn
                  ~pass:"liveness" ~path:[ b.b_name ]
                  ~loc:arms.(i).a_behavior.b_name
                  "behavior %s is unreachable in sequential composition %s"
                  arms.(i).a_behavior.b_name b.b_name
                :: !acc
            else if not flow_reach.(i) then
              acc :=
                Diagnostic.makef ~code:"LIVE003" ~severity:warn
                  ~pass:"liveness" ~path:[ b.b_name ]
                  ~loc:arms.(i).a_behavior.b_name
                  "behavior %s is unreachable in sequential composition %s \
                   (every route to it is cut by an always-false transition \
                   guard)"
                  arms.(i).a_behavior.b_name b.b_name
                :: !acc)
          base;
        !acc
      | Leaf _ | Par _ -> acc)
    acc p.p_top

let pass = { Pass.p_name = "liveness"; p_codes = codes; p_run = run }
