(** Shared infrastructure of the lint passes: the analysis context (a
    flattened view of every leaf's accesses with scoping resolved), the
    pass interface, phase inference, and a few structural helpers for
    recognizing refinement-generated protocol shapes (master procedures,
    decoded slave addresses).

    Scoping is resolved once, here: every variable access is keyed by
    its {e declaration} (program variable, or [owner.name] for a
    behavior-local), so passes compare declarations rather than raw
    names even in the presence of shadowing. *)

open Spec
open Ast

(** Whether the program is an unpartitioned input spec ([Pre]) or a
    refined / server-style output ([Post]).  The distinction drives
    severity: a race in an input spec is exactly what refinement will
    serialize (warning), the same race in a refined output is a broken
    refinement (error). *)
type phase = Pre | Post

(* A refined output has moved all storage into memory behaviors
   (p_vars = []) and introduced wires or servers; an input spec
   declares its partitionable variables at program level. *)
let infer_phase (p : program) =
  if p.p_vars = [] && (p.p_servers <> [] || p.p_signals <> []) then Post
  else Pre

(** One leaf behavior (or the TOC conditions of one sequential
    composition), with its accesses resolved against the scope. *)
type site = {
  st_behavior : string;  (** behavior owning the statements *)
  st_path : string list;  (** path from the top behavior, inclusive *)
  st_region : string;
      (** nearest enclosing Par-child ancestor (the concurrent region the
          site executes in); the top behavior when not under any Par *)
  st_server : bool;  (** inside a registered perpetual server subtree *)
  st_stmts : stmt list;  (** direct statements ([[]] for a TOC site) *)
  st_var_reads : (string * string) list;  (** (decl key, display name) *)
  st_var_writes : (string * string) list;
  st_sig_reads : string list;
  st_sig_writes : string list;
  st_waits : expr list;  (** all [wait until] conditions, nesting included *)
  st_calls : (string * arg list) list;  (** all procedure calls *)
}

type t = {
  lc_program : program;
  lc_phase : phase;
  lc_signals : Names.Set.t;  (** the program's declared signals *)
  lc_sites : site list;  (** every leaf and TOC site, preorder *)
  lc_flow : Flow.summary option;
      (** flow summary when the flow-sensitive modes are enabled *)
}

(** A named analysis pass: [p_codes] documents the diagnostic codes it
    can emit (code, one-line description). *)
type pass = {
  p_name : string;
  p_codes : (string * string) list;
  p_run : t -> Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Statement collectors (recursive, unlike the flat Stmt helpers).    *)

let rec waits_of_stmts acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Wait_until c -> c :: acc
      | If (branches, els) ->
        let acc =
          List.fold_left (fun acc (_, b) -> waits_of_stmts acc b) acc branches
        in
        waits_of_stmts acc els
      | While (_, body) | For (_, _, _, body) -> waits_of_stmts acc body
      | Assign _ | Assign_idx _ | Signal_assign _ | Call _ | Emit _ | Skip ->
        acc)
    acc stmts

let rec calls_of_stmts acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Call (name, args) -> (name, args) :: acc
      | If (branches, els) ->
        let acc =
          List.fold_left (fun acc (_, b) -> calls_of_stmts acc b) acc branches
        in
        calls_of_stmts acc els
      | While (_, body) | For (_, _, _, body) -> calls_of_stmts acc body
      | Assign _ | Assign_idx _ | Signal_assign _ | Wait_until _ | Emit _
      | Skip ->
        acc)
    acc stmts

(* ------------------------------------------------------------------ *)
(* Context construction.                                              *)

type binding = Bvar of string  (** decl key *) | Bsig

let site_of scope ~path ~region ~server name stmts ~extra_reads =
  let resolve x = Names.Map.find_opt x scope in
  let var_reads = ref [] and sig_reads = ref [] in
  let var_writes = ref [] and sig_writes = ref [] in
  List.iter
    (fun x ->
      match resolve x with
      | Some (Bvar key) -> var_reads := (key, x) :: !var_reads
      | Some Bsig -> sig_reads := x :: !sig_reads
      | None -> ())
    (Stmt.reads stmts @ extra_reads);
  List.iter
    (fun x ->
      match resolve x with
      | Some (Bvar key) -> var_writes := (key, x) :: !var_writes
      | Some Bsig | None -> ())
    (Stmt.writes stmts);
  List.iter
    (fun x ->
      match resolve x with
      | Some Bsig -> sig_writes := x :: !sig_writes
      | Some (Bvar _) | None -> ())
    (Stmt.signal_writes stmts);
  {
    st_behavior = name;
    st_path = path;
    st_region = region;
    st_server = server;
    st_stmts = stmts;
    st_var_reads = List.rev !var_reads;
    st_var_writes = List.rev !var_writes;
    st_sig_reads = List.rev !sig_reads;
    st_sig_writes = List.rev !sig_writes;
    st_waits = List.rev (waits_of_stmts [] stmts);
    st_calls = List.rev (calls_of_stmts [] stmts);
  }

let make_ctx ~phase ?flow (p : program) =
  let base_scope =
    Names.bind
      (List.map (fun (v : var_decl) -> (v.v_name, Bvar v.v_name)) p.p_vars)
      (Names.bind
         (List.map (fun (s : sig_decl) -> (s.s_name, Bsig)) p.p_signals)
         Names.Map.empty)
  in
  let servers = Names.Set.of_list p.p_servers in
  let rec walk scope path region server b acc =
    let server = server || Names.Set.mem b.b_name servers in
    let scope =
      Names.bind
        (List.map
           (fun (v : var_decl) ->
             (v.v_name, Bvar (b.b_name ^ "." ^ v.v_name)))
           b.b_vars)
        scope
    in
    let path = path @ [ b.b_name ] in
    match b.b_body with
    | Leaf stmts ->
      site_of scope ~path ~region ~server b.b_name stmts ~extra_reads:[]
      :: acc
    | Par children ->
      List.fold_left
        (fun acc c -> walk scope path c.b_name server c acc)
        acc children
    | Seq arms ->
      let toc_reads =
        List.concat_map
          (fun a ->
            List.concat_map
              (fun tr ->
                match tr.t_cond with Some c -> Expr.refs c | None -> [])
              a.a_transitions)
          arms
      in
      let acc =
        if toc_reads = [] then acc
        else
          site_of scope ~path ~region ~server b.b_name []
            ~extra_reads:toc_reads
          :: acc
      in
      List.fold_left
        (fun acc a -> walk scope path region server a.a_behavior acc)
        acc arms
  in
  let sites =
    List.rev (walk base_scope [] p.p_top.b_name false p.p_top [])
  in
  {
    lc_program = p;
    lc_phase = phase;
    lc_signals =
      Names.Set.of_list (List.map (fun (s : sig_decl) -> s.s_name) p.p_signals);
    lc_sites = sites;
    lc_flow = flow;
  }

(* ------------------------------------------------------------------ *)
(* Protocol structure recognition.                                    *)

let is_signal ctx x = Names.Set.mem x ctx.lc_signals

(** Procedures shaped like refinement-generated bus masters
    ([MST_send]/[MST_receive]): at least one parameter, a [wait until]
    in the body, and the first parameter driven onto a signal (the bus
    address).  Returns [(proc name, address signal)]. *)
let master_procs ctx : (string * string) list =
  List.filter_map
    (fun pr ->
      match pr.prc_params with
      | [] -> None
      | a0 :: _ ->
        if waits_of_stmts [] pr.prc_body = [] then None
        else
          let rec find_addr = function
            | [] -> None
            | Signal_assign (s, Ref x) :: _
              when String.equal x a0.prm_name && is_signal ctx s ->
              Some (pr.prc_name, s)
            | _ :: rest -> find_addr rest
          in
          find_addr pr.prc_body)
    ctx.lc_program.p_procs

(** The wire set of the bus mastered through the given procedures: the
    address signal plus every signal the procedures drive or wait on. *)
let bus_signal_set ctx ~addr ~procs =
  let shadowed pr x =
    List.exists (fun prm -> String.equal prm.prm_name x) pr.prc_params
    || List.exists
         (fun (v : var_decl) -> String.equal v.v_name x)
         pr.prc_vars
  in
  List.fold_left
    (fun acc pr ->
      let keep x =
        if is_signal ctx x && not (shadowed pr x) && not (List.mem x acc) then
          true
        else false
      in
      let written = List.filter keep (Stmt.signal_writes pr.prc_body) in
      let acc = acc @ written in
      let waited =
        List.concat_map Expr.refs (waits_of_stmts [] pr.prc_body)
      in
      acc @ List.filter keep waited)
    [ addr ]
    (List.filter
       (fun pr -> List.mem_assoc pr.prc_name procs)
       ctx.lc_program.p_procs)

(** A statically decoded slave address: an exact compare or an inclusive
    range, as generated by the memory builders. *)
type served = Single of int | Range of int * int

let serves addr = function
  | Single k -> addr = k
  | Range (lo, hi) -> addr >= lo && addr <= hi

(** Every [(signal, served)] address decode found anywhere in the
    program — behavior leaves, TOC conditions and procedure bodies.
    Recognizes [s = k] and [s >= lo && s <= hi]. *)
let served_addresses ctx : (string * served) list =
  let p = ctx.lc_program in
  let rec harvest acc e =
    let acc =
      match e with
      | Binop (Eq, Ref s, Const (VInt k)) | Binop (Eq, Const (VInt k), Ref s)
        when is_signal ctx s ->
        (s, Single k) :: acc
      | Binop
          ( And,
            Binop (Ge, Ref s, Const (VInt lo)),
            Binop (Le, Ref s', Const (VInt hi)) )
        when String.equal s s' && is_signal ctx s ->
        (s, Range (lo, hi)) :: acc
      | _ -> acc
    in
    match e with
    | Binop (_, a, b) -> harvest (harvest acc a) b
    | Unop (_, a) -> harvest acc a
    | Index (_, i) -> harvest acc i
    | Const _ | Ref _ -> acc
  in
  let of_stmts acc stmts = Stmt.fold_exprs harvest acc stmts in
  let acc =
    Behavior.fold
      (fun acc b ->
        match b.b_body with
        | Leaf stmts -> of_stmts acc stmts
        | Seq arms ->
          List.fold_left
            (fun acc a ->
              List.fold_left
                (fun acc tr ->
                  match tr.t_cond with
                  | Some c -> harvest acc c
                  | None -> acc)
                acc a.a_transitions)
            acc arms
        | Par _ -> acc)
      [] p.p_top
  in
  List.fold_left (fun acc pr -> of_stmts acc pr.prc_body) acc p.p_procs

(** Signal usage of one procedure body (parameters and locals masked):
    signals driven, signals read, and the wait conditions. *)
let proc_signal_uses ctx (pr : proc_decl) =
  let shadowed x =
    List.exists (fun prm -> String.equal prm.prm_name x) pr.prc_params
    || List.exists (fun (v : var_decl) -> String.equal v.v_name x) pr.prc_vars
  in
  let keep x = is_signal ctx x && not (shadowed x) in
  let written = List.filter keep (Stmt.signal_writes pr.prc_body) in
  let read = List.filter keep (Stmt.reads pr.prc_body) in
  (written, read)

let severity_for_phase = function
  | Pre -> Diagnostic.Warning
  | Post -> Diagnostic.Error
