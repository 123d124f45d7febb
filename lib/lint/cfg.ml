(** Statement-level control-flow graphs; see the interface.

    The graph is built per statement list (one per leaf behavior or
    procedure body).  Compound statements are lowered: an [If] chain
    becomes one branch node per condition with true/false out-edges, a
    [While] becomes a branch node with a back edge from its body, and a
    [For] desugars into synthesized init / test / increment nodes so the
    dataflow transfer functions only ever see primitive statements.
    Synthesized nodes are flagged: they carry no source position and
    must not anchor diagnostics of their own. *)

open Spec
open Ast

type edge = Eseq | Etrue | Efalse

type kind =
  | Nentry
  | Nexit
  | Nstmt of stmt  (** primitive statement — never [If]/[While]/[For] *)
  | Nbranch of expr  (** decision point of an [If]/[While]/[For] test *)

type node = {
  n_id : int;
  n_kind : kind;
  n_synth : bool;
  mutable n_succ : (edge * int) list;
  mutable n_pred : int list;
}

type t = { c_nodes : node array; c_entry : int; c_exit : int }

let size g = Array.length g.c_nodes
let node g i = g.c_nodes.(i)
let succs g i = g.c_nodes.(i).n_succ
let preds g i = g.c_nodes.(i).n_pred

(* ------------------------------------------------------------------ *)
(* Construction.  A [frontier] is the set of dangling labeled          *)
(* out-edges waiting for the next node in execution order.             *)

let build stmts =
  let rev_nodes = ref [] and count = ref 0 in
  let add ?(synth = false) kind =
    let n =
      { n_id = !count; n_kind = kind; n_synth = synth; n_succ = []; n_pred = [] }
    in
    incr count;
    rev_nodes := n :: !rev_nodes;
    n
  in
  let connect frontier target =
    List.iter
      (fun (n, e) ->
        n.n_succ <- n.n_succ @ [ (e, target.n_id) ];
        target.n_pred <- target.n_pred @ [ n.n_id ])
      frontier
  in
  let entry = add Nentry in
  let rec seq frontier stmts = List.fold_left one frontier stmts
  and one frontier s =
    match s with
    | Assign _ | Assign_idx _ | Signal_assign _ | Wait_until _ | Call _
    | Emit _ | Skip ->
      let n = add (Nstmt s) in
      connect frontier n;
      [ (n, Eseq) ]
    | If (branches, els) ->
      let rec chain frontier = function
        | [] -> seq frontier els
        | (c, body) :: rest ->
          let b = add (Nbranch c) in
          connect frontier b;
          let after_body = seq [ (b, Etrue) ] body in
          let after_rest = chain [ (b, Efalse) ] rest in
          after_body @ after_rest
      in
      chain frontier branches
    | While (c, body) ->
      let t = add (Nbranch c) in
      connect frontier t;
      let after_body = seq [ (t, Etrue) ] body in
      connect after_body t;
      [ (t, Efalse) ]
    | For (i, lo, hi, body) ->
      let init = add ~synth:true (Nstmt (Assign (i, lo))) in
      connect frontier init;
      let t = add ~synth:true (Nbranch (Binop (Le, Ref i, hi))) in
      connect [ (init, Eseq) ] t;
      let after_body = seq [ (t, Etrue) ] body in
      let incr_n =
        add ~synth:true (Nstmt (Assign (i, Binop (Add, Ref i, Const (VInt 1)))))
      in
      connect after_body incr_n;
      connect [ (incr_n, Eseq) ] t;
      [ (t, Efalse) ]
  in
  let final = seq [ (entry, Eseq) ] stmts in
  let exit_n = add Nexit in
  connect final exit_n;
  let nodes = Array.of_list (List.rev !rev_nodes) in
  { c_nodes = nodes; c_entry = entry.n_id; c_exit = exit_n.n_id }

(* ------------------------------------------------------------------ *)
(* Per-node access sets for the dataflow domains.                      *)

let exprs_of_kind = function
  | Nentry | Nexit -> []
  | Nbranch c -> [ c ]
  | Nstmt s ->
    (match s with
    | Assign (_, e) | Signal_assign (_, e) | Emit (_, e) | Wait_until e ->
      [ e ]
    | Assign_idx (x, i, e) -> [ Ref x; i; e ]
    | Call (_, args) ->
      List.filter_map
        (function Arg_expr e -> Some e | Arg_var _ -> None)
        args
    | If _ | While _ | For _ | Skip -> [])

(** Names read by the node: every reference of its expressions.  An
    indexed store reads its own array (partial update), and a branch
    reads its condition. *)
let uses n =
  List.sort_uniq String.compare
    (List.concat_map Expr.refs (exprs_of_kind n.n_kind))

(** Variable names the node definitely (fully) overwrites.  Indexed
    stores are partial and kill nothing; signal assignment keeps the old
    value visible until the next delta, so it kills nothing either. *)
let defs n =
  match n.n_kind with
  | Nstmt (Assign (x, _)) -> [ x ]
  | Nstmt (Call (_, args)) ->
    List.sort_uniq String.compare
      (List.filter_map
         (function Arg_var x -> Some x | Arg_expr _ -> None)
         args)
  | _ -> []

(** Signals the node drives. *)
let sig_defs n =
  match n.n_kind with Nstmt (Signal_assign (s, _)) -> [ s ] | _ -> []

(* ------------------------------------------------------------------ *)
(* Rendering, for the golden tests.                                    *)

let kind_to_string = function
  | Nentry -> "entry"
  | Nexit -> "exit"
  | Nbranch c -> Printf.sprintf "branch %s" (Expr.to_string c)
  | Nstmt s ->
    (match s with
    | Assign (x, e) -> Printf.sprintf "%s := %s" x (Expr.to_string e)
    | Assign_idx (x, i, e) ->
      Printf.sprintf "%s[%s] := %s" x (Expr.to_string i) (Expr.to_string e)
    | Signal_assign (s, e) -> Printf.sprintf "%s <= %s" s (Expr.to_string e)
    | Wait_until c -> Printf.sprintf "wait until %s" (Expr.to_string c)
    | Call (f, args) ->
      Printf.sprintf "call %s/%d" f (List.length args)
    | Emit (tag, e) -> Printf.sprintf "emit %S %s" tag (Expr.to_string e)
    | Skip -> "skip"
    | If _ | While _ | For _ -> "<compound>")

let edge_to_string = function Eseq -> "" | Etrue -> "t:" | Efalse -> "f:"

let to_string g =
  let buf = Buffer.create 256 in
  Array.iter
    (fun n ->
      let succs =
        String.concat ","
          (List.map
             (fun (e, j) -> Printf.sprintf "%s%d" (edge_to_string e) j)
             n.n_succ)
      in
      Buffer.add_string buf
        (Printf.sprintf "%d%s %s -> %s\n" n.n_id
           (if n.n_synth then "*" else "")
           (kind_to_string n.n_kind) succs))
    g.c_nodes;
  Buffer.contents buf
