open Ast

let make ?(vars = []) ?(signals = []) ?(procs = []) ?(servers = []) name top =
  {
    p_name = name;
    p_vars = vars;
    p_signals = signals;
    p_procs = procs;
    p_top = top;
    p_servers = servers;
  }

let lookup_var p x = List.find_opt (fun v -> String.equal v.v_name x) p.p_vars

let lookup_signal p x =
  List.find_opt (fun s -> String.equal s.s_name x) p.p_signals

let lookup_behavior p x = Behavior.find x p.p_top
let behavior_names p = Behavior.names p.p_top
let var_names p = List.map (fun v -> v.v_name) p.p_vars
let is_server p x = List.exists (String.equal x) p.p_servers

(* --- validation ------------------------------------------------------- *)

(* Scope = set of names visible as readable/writable data (variables,
   signals, parameters).  Scoping is by name; shadowing is allowed. *)
module Scope = Names.Set

(* Names occurring more than once, each reported once, in order of its
   second occurrence. *)
let duplicates names =
  let rec go seen reported = function
    | [] -> []
    | x :: rest ->
      if not (Scope.mem x seen) then go (Scope.add x seen) reported rest
      else if Scope.mem x reported then go seen reported rest
      else x :: go seen (Scope.add x reported) rest
  in
  go Scope.empty Scope.empty names

let check_unique what names errs =
  List.fold_left
    (fun errs d -> Printf.sprintf "duplicate %s name: %s" what d :: errs)
    errs (duplicates names)

let scope_of_decls vars signals =
  let s = List.fold_left (fun s v -> Scope.add v.v_name s) Scope.empty vars in
  List.fold_left (fun s sd -> Scope.add sd.s_name s) s signals

(* An error located at [where], formatted only when raised. *)
let err where fmt = Printf.ksprintf (fun s -> Lazy.force where ^ ": " ^ s) fmt

(* [procs] maps a procedure name to its first declaration. *)
let rec check_stmts procs ~where scope errs stmts =
  List.fold_left (check_stmt procs ~where scope) errs stmts

and check_expr ~where scope errs e =
  if not (Expr.exists_ref (fun x -> not (Scope.mem x scope)) e) then errs
  else
    List.fold_left
      (fun errs x ->
        if Scope.mem x scope then errs
        else err where "unbound reference %s" x :: errs)
      errs (Expr.refs e)

and check_target ~where scope errs x =
  if Scope.mem x scope then errs
  else err where "assignment to undeclared name %s" x :: errs

and check_stmt procs ~where scope errs = function
  | Assign (x, e) ->
    check_expr ~where scope (check_target ~where scope errs x) e
  | Assign_idx (x, i, e) ->
    let errs = check_target ~where scope errs x in
    let errs = check_expr ~where scope errs i in
    check_expr ~where scope errs e
  | Signal_assign (s, e) ->
    let errs =
      if Scope.mem s scope then errs
      else err where "signal assignment to undeclared %s" s :: errs
    in
    check_expr ~where scope errs e
  | If (branches, els) ->
    let errs =
      List.fold_left
        (fun errs (c, body) ->
          check_stmts procs ~where scope (check_expr ~where scope errs c) body)
        errs branches
    in
    check_stmts procs ~where scope errs els
  | While (c, body) ->
    check_stmts procs ~where scope (check_expr ~where scope errs c) body
  | For (i, lo, hi, body) ->
    let errs = check_target ~where scope errs i in
    let errs = check_expr ~where scope errs lo in
    let errs = check_expr ~where scope errs hi in
    check_stmts procs ~where scope errs body
  | Wait_until c -> check_expr ~where scope errs c
  | Call (name, args) ->
    begin match Names.Map.find_opt name procs with
    | None -> err where "call to unknown procedure %s" name :: errs
    | Some pr ->
      let np = List.length pr.prc_params and na = List.length args in
      if np <> na then
        err where "call to %s with %d arguments, expected %d" name na np
        :: errs
      else
        List.fold_left2
          (fun errs prm a ->
            match (prm.prm_mode, a) with
            | Mode_in, Arg_expr e -> check_expr ~where scope errs e
            | Mode_out, Arg_var x -> check_target ~where scope errs x
            | Mode_in, Arg_var x ->
              (* Passing a variable to an [in] parameter is fine — it is
                 just the expression [Ref x]. *)
              check_expr ~where scope errs (Ref x)
            | Mode_out, Arg_expr _ ->
              err where "call to %s passes an expression to out parameter %s"
                name prm.prm_name
              :: errs)
          errs pr.prc_params args
    end
  | Emit (_, e) -> check_expr ~where scope errs e
  | Skip -> errs

let rec check_behavior procs scope errs b =
  let scope =
    List.fold_left (fun s v -> Scope.add v.v_name s) scope b.b_vars
  in
  let where = lazy (Printf.sprintf "behavior %s" b.b_name) in
  match b.b_body with
  | Leaf stmts -> check_stmts procs ~where scope errs stmts
  | Par bs -> List.fold_left (check_behavior procs scope) errs bs
  | Seq arms ->
    let sibling_names =
      Names.Set.of_list (List.map (fun a -> a.a_behavior.b_name) arms)
    in
    let errs =
      List.fold_left
        (fun errs a ->
          List.fold_left
            (fun errs t ->
              let errs =
                match t.t_cond with
                | Some c -> check_expr ~where scope errs c
                | None -> errs
              in
              match t.t_target with
              | Complete -> errs
              | Goto target ->
                if Names.Set.mem target sibling_names then errs
                else
                  err where "transition to non-sibling %s" target :: errs)
            errs a.a_transitions)
        errs arms
    in
    List.fold_left
      (fun errs a -> check_behavior procs scope errs a.a_behavior)
      errs arms

let check_proc procs base errs pr =
  let scope =
    List.fold_left (fun s prm -> Scope.add prm.prm_name s) base pr.prc_params
  in
  let scope =
    List.fold_left (fun s v -> Scope.add v.v_name s) scope pr.prc_vars
  in
  let where = lazy (Printf.sprintf "procedure %s" pr.prc_name) in
  check_stmts procs ~where scope errs pr.prc_body

let validate p =
  let procs =
    Names.bind (List.map (fun pr -> (pr.prc_name, pr)) p.p_procs) Names.Map.empty
  in
  let behaviors = behavior_names p in
  let errs = [] in
  let errs = check_unique "behavior" behaviors errs in
  let errs = check_unique "variable" (var_names p) errs in
  let errs =
    check_unique "signal" (List.map (fun s -> s.s_name) p.p_signals) errs
  in
  let errs =
    check_unique "procedure" (List.map (fun pr -> pr.prc_name) p.p_procs) errs
  in
  let errs =
    let behaviors = Names.Set.of_list behaviors in
    List.fold_left
      (fun errs srv ->
        if Names.Set.mem srv behaviors then errs
        else Printf.sprintf "server %s is not a behavior" srv :: errs)
      errs p.p_servers
  in
  let base = scope_of_decls p.p_vars p.p_signals in
  let errs = List.fold_left (check_proc procs base) errs p.p_procs in
  let errs = check_behavior procs base errs p.p_top in
  match errs with [] -> Ok () | _ -> Error (List.rev errs)

let validate_exn p =
  match validate p with
  | Ok () -> p
  | Error msgs -> invalid_arg (String.concat "; " msgs)
