open Spec
open Spec.Ast

type moved = {
  mv_partition : int;
  mv_behavior : behavior;
  mv_original_name : string;
  mv_start : string;
  mv_done : string;
}

type result = {
  cr_top_home : int;
  cr_main : behavior;
  cr_moved : moved list;
  cr_signals : sig_decl list;
}

(* Home of a behavior: its own partition when it is an object, otherwise
   the home of its first object-bearing child.  [None] for subtrees that
   contain no object at all (they stay with their context). *)
let rec home ~is_object ~home_of b =
  if is_object b.b_name then Some (home_of b.b_name)
  else
    let rec first_child = function
      | [] -> None
      | c :: rest ->
        begin match home ~is_object ~home_of c with
        | Some h -> Some h
        | None -> first_child rest
        end
    in
    first_child (Behavior.children b)

(* The B_CTRL leaf: a four-phase handshake activating the remote B_NEW.
   The handshake spans whole behavior-body executions, which take many
   more delta cycles than one bus transfer; a hardened controller's wait
   for [done] gets proportionally more patience so that fault-free long
   bodies do not trigger (harmless but noisy) spurious retries. *)
let ctrl_leaf ?harden name ~start ~done_ =
  Behavior.leaf ~vars:(Protocol.wdg_vars harden) name
    (Protocol.four_phase_request ?harden ~slack:8 ~label:start ~start ~done_
       ())

(* The leaf wrapper scheme (Figure 4b): the original statements inside a
   perpetual serve loop bracketed by the handshake.  The locals are
   re-initialized on every activation, because a fresh instance of the
   original behavior would have started from its initial values. *)
let leaf_scheme ?harden ~new_name ~start ~done_ inner =
  let stmts = match inner.b_body with Leaf s -> s | Seq _ | Par _ -> [] in
  let reinit =
    List.map
      (fun (v : var_decl) ->
        let init =
          match v.v_init with Some i -> i | None -> default_value v.v_ty
        in
        Assign (v.v_name, Const init))
      inner.b_vars
  in
  (* Watchdog locals, avoiding accidental capture when a wrapped behavior
     already declares a same-named local. *)
  let declared (v : var_decl) =
    List.exists (fun (w : var_decl) -> w.v_name = v.v_name) inner.b_vars
  in
  let vars =
    inner.b_vars
    @ List.filter (fun v -> not (declared v)) (Protocol.wdg_vars harden)
  in
  Behavior.leaf ~vars new_name
    [
      Builder.while_ Expr.tru
        (Builder.wait_until Expr.(ref_ start = tru)
         :: reinit
        @ stmts
        @ Protocol.four_phase_complete ?harden ~label:done_ ~start ~done_ ());
    ]

(* The non-leaf wrapper scheme (Figure 4c): a sequential composition of a
   wait leaf, the original behavior and a completion leaf looping back. *)
let nonleaf_scheme ~naming ?harden ~new_name ~start ~done_ inner =
  let wait_name = Naming.fresh naming (inner.b_name ^ "_wait") in
  let fin_name = Naming.fresh naming (inner.b_name ^ "_fin") in
  let wait_leaf =
    Behavior.leaf wait_name [ Builder.wait_until Expr.(ref_ start = tru) ]
  in
  let fin_leaf =
    Behavior.leaf ~vars:(Protocol.wdg_vars harden) fin_name
      (Protocol.four_phase_complete ?harden ~label:done_ ~start ~done_ ())
  in
  Behavior.seq new_name
    [
      Behavior.arm wait_leaf;
      Behavior.arm inner;
      Behavior.arm fin_leaf ~transitions:[ Builder.goto wait_name ];
    ]

let retarget renames t =
  match t.t_target with
  | Complete -> t
  | Goto name ->
    begin match List.assoc_opt name renames with
    | Some name' -> { t with t_target = Goto name' }
    | None -> t
    end

let run ~naming ?(force_nonleaf = false) ?harden ~is_object ~home_of_object
    top =
  let signals = ref [] in
  let moved_acc = ref [] in
  let home = home ~is_object ~home_of:home_of_object in
  let rec refine_tree ctx b =
    match home b with
    | None -> descend ctx b
    | Some h when h = ctx -> descend ctx b
    | Some h ->
      let inner = descend h b in
      let start = Naming.start_signal naming b.b_name in
      let done_ = Naming.done_signal naming b.b_name in
      (* Accumulated in reverse; the final [List.rev] restores
         declaration order: start before done. *)
      signals :=
        Builder.bool_signal ~init:false done_
        :: Builder.bool_signal ~init:false start
        :: !signals;
      let ctrl_name = Naming.ctrl naming b.b_name in
      let new_name = Naming.moved naming b.b_name in
      let wrapper =
        if Behavior.is_leaf inner && not force_nonleaf then
          leaf_scheme ?harden ~new_name ~start ~done_ inner
        else nonleaf_scheme ~naming ?harden ~new_name ~start ~done_ inner
      in
      moved_acc :=
        {
          mv_partition = h;
          mv_behavior = wrapper;
          mv_original_name = b.b_name;
          mv_start = start;
          mv_done = done_;
        }
        :: !moved_acc;
      ctrl_leaf ?harden ctrl_name ~start ~done_
  (* Refine the children of a behavior that stays (or has just moved) to
     context [ctx].  Objects are atomic: their interior never splits. *)
  and descend ctx b =
    if is_object b.b_name then b
    else
      match b.b_body with
      | Leaf _ -> b
      | Par children ->
        { b with b_body = Par (List.map (refine_tree ctx) children) }
      | Seq arms ->
        let refined =
          List.map
            (fun a ->
              let b' = refine_tree ctx a.a_behavior in
              (a, b'))
            arms
        in
        let renames =
          List.filter_map
            (fun (a, b') ->
              if String.equal a.a_behavior.b_name b'.b_name then None
              else Some (a.a_behavior.b_name, b'.b_name))
            refined
        in
        let arms' =
          List.map
            (fun (a, b') ->
              {
                a_behavior = b';
                a_transitions = List.map (retarget renames) a.a_transitions;
              })
            refined
        in
        { b with b_body = Seq arms' }
  in
  let top_home = match home top with Some h -> h | None -> 0 in
  let main = descend top_home top in
  {
    cr_top_home = top_home;
    cr_main = main;
    cr_moved = List.rev !moved_acc;
    cr_signals = List.rev !signals;
  }
