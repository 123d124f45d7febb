(** Structural invariant checks on a refinement result, beyond
    {!Spec.Program.validate}: they catch refiner bugs early and are also
    exercised directly by the failure-injection tests.

    Findings are reported as {!Spec.Diagnostic.t} values with stable
    codes ([REF001]–[REF004], [CONT001]/[CONT002], [NAME001], plus the
    [TYPE00x] codes of {!Spec.Typecheck}); {!run} is the historical
    string-list shim over {!diagnostics}. *)

open Spec

type violation = string

let diag ~code ?(severity = Diagnostic.Error) ?path ?loc pass fmt =
  Printf.ksprintf
    (fun s -> Diagnostic.make ~code ~severity ~pass ?path ?loc s)
    fmt

(* Every partitioned variable of the original program must have
   disappeared from the refined program's variable section — all storage
   now lives inside memory behaviors. *)
let check_no_program_vars (r : Refiner.t) acc =
  match r.Refiner.rf_program.Ast.p_vars with
  | [] -> acc
  | vs ->
    diag ~code:"REF001" "check"
      "refined program still declares top-level variables: %s"
      (String.concat ", " (List.map (fun v -> v.Ast.v_name) vs))
    :: acc

(* Every bus with two or more requesters must have an arbiter, and
   single-requester buses must not (paper: an arbiter is required when
   more than one behavior wants the bus). *)
let check_arbiters (r : Refiner.t) acc =
  List.fold_left
    (fun acc (bi : Refiner.bus_inst) ->
      let n = List.length bi.Refiner.bi_requesters in
      let label = bi.Refiner.bi_signals.Protocol.bs_label in
      match bi.Refiner.bi_arbiter with
      | None when n >= 2 ->
        diag ~code:"CONT001" ~loc:label "check"
          "bus %s has %d masters but no arbiter" label n
        :: acc
      | Some _ when n < 2 ->
        diag ~code:"CONT002" ~loc:label "check"
          "bus %s has %d master(s) but an arbiter" label n
        :: acc
      | _ -> acc)
    acc r.Refiner.rf_buses

(* The number of instantiated buses must respect the model's bound. *)
let check_bus_bound (r : Refiner.t) acc =
  let p = r.Refiner.rf_plan.Bus_plan.bp_parts in
  let bound = Model.max_buses r.Refiner.rf_model ~p in
  let n = List.length r.Refiner.rf_buses in
  if n > bound then
    diag ~code:"REF002" "check"
      "%s instantiates %d buses, above the model bound %d"
      (Model.name r.Refiner.rf_model) n bound
    :: acc
  else acc

(* Every generated server must exist and be registered.  [behaviors]
   maps each behavior name of the refined program to its first
   occurrence, as {!Program.lookup_behavior} finds it. *)
let check_servers behaviors (r : Refiner.t) acc =
  let servers = Names.Set.of_list r.Refiner.rf_program.Ast.p_servers in
  List.fold_left
    (fun acc name ->
      match Names.Map.find_opt name behaviors with
      | Some _ ->
        if Names.Set.mem name servers then acc
        else
          diag ~code:"REF003" ~loc:name "check"
            "generated behavior %s is not a server" name
          :: acc
      | None ->
        diag ~code:"REF003" ~loc:name "check" "server %s does not exist" name
        :: acc)
    acc
    (r.Refiner.rf_memories @ r.Refiner.rf_arbiters @ r.Refiner.rf_moved)

(* No leaf of the refined program may still reference an original
   partitioned variable by name (they were all renamed to tmps or routed
   through protocols); memory behaviors hold the storage and are the only
   legal place for those names. *)
let check_no_direct_access behaviors (original : Ast.program) (r : Refiner.t)
    acc =
  let program_vars = Names.Set.of_list (Program.var_names original) in
  let memory_scope =
    List.fold_left
      (fun s m ->
        match Names.Map.find_opt m behaviors with
        | Some b -> Names.Set.union s (Names.Set.of_list (Behavior.names b))
        | None -> s)
      Names.Set.empty r.Refiner.rf_memories
  in
  Behavior.fold
    (fun acc b ->
      if Names.Set.mem b.Ast.b_name memory_scope then acc
      else
        match b.Ast.b_body with
        | Ast.Leaf stmts ->
          let partitioned x =
            Names.Set.mem x program_vars
            && not
                 (List.exists
                    (fun v -> String.equal v.Ast.v_name x)
                    b.Ast.b_vars)
          in
          let touched =
            if Stmt.exists_access partitioned stmts then
              List.filter partitioned (Stmt.reads stmts @ Stmt.writes stmts)
            else []
          in
          List.fold_left
            (fun acc x ->
              diag ~code:"REF004" ~path:[ b.Ast.b_name ] ~loc:x "check"
                "behavior %s still accesses partitioned variable %s directly"
                b.Ast.b_name x
              :: acc)
            acc touched
        | Ast.Seq _ | Ast.Par _ -> acc)
    acc r.Refiner.rf_program.Ast.p_top

let diagnostics ~original (r : Refiner.t) : Diagnostic.t list =
  let acc = [] in
  let acc = check_no_program_vars r acc in
  let acc = check_arbiters r acc in
  let acc = check_bus_bound r acc in
  let behaviors =
    Names.bind
      (List.rev
         (Behavior.fold
            (fun acc b -> (b.Ast.b_name, b) :: acc)
            [] r.Refiner.rf_program.Ast.p_top))
      Names.Map.empty
  in
  let acc = check_servers behaviors r acc in
  let acc = check_no_direct_access behaviors original r acc in
  let acc = Refiner.verdict r @ acc in
  Diagnostic.sort acc

(* Sorted by (severity, code, location) via {!Diagnostic.compare}, so
   failure output is stable across runs.  Any diagnostic — including a
   warning-severity one — makes the refinement result unsound. *)
let run ~original (r : Refiner.t) : (unit, violation list) result =
  match diagnostics ~original r with
  | [] -> Ok ()
  | ds ->
    Error
      (List.map
         (fun (d : Diagnostic.t) ->
           if String.equal d.Diagnostic.d_pass "typecheck" then
             "type error: " ^ d.Diagnostic.d_message
           else d.Diagnostic.d_message)
         ds)
