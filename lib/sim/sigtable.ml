(** The signal store: current values plus the delta-delayed update queue.
    A signal assignment schedules the new value; {!commit_changes} applies
    all scheduled updates at once (one delta cycle) and reports what
    changed.

    Names are interned to dense integer ids at construction: the id order
    is the sorted name order, so iterating ids ascending reproduces the
    name-sorted commit order the string-keyed store had.  Values live in
    flat arrays indexed by id; the scheduled queue is a validity mask plus
    a worklist of scheduled ids, so a commit touches only the signals that
    were actually written. *)

open Spec

(** What an update intercept decides about one scheduled update (fault
    injection): let it through, lose it, or corrupt it in flight. *)
type action =
  | Pass
  | Drop
  | Rewrite of Ast.value

type t = {
  names : string array;  (** id -> name; sorted, so id order = name order *)
  ids : (string, int) Hashtbl.t;  (** name -> id *)
  initial : Ast.value array;  (** declaration-time values, for {!reset} *)
  current : Ast.value array;
  sched_val : Ast.value array;  (** valid only where [sched_mark] is set *)
  sched_mark : bool array;
  sched_q : int array;  (** first [n_sched] entries: scheduled ids, unsorted, no duplicates *)
  sched_scratch : int array;  (** commit-order staging, so a commit survives re-schedules *)
  mutable n_sched : int;
  mutable intercept : (string -> Ast.value -> action) option;
  mutable notify : (int -> unit) option;
      (** called when {!poke} changes a current value outside a commit —
          the event-driven scheduler re-arms the signal's waiters *)
}

let make (decls : Ast.sig_decl list) =
  (* Last declaration of a name wins, as Hashtbl.replace used to. *)
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.sig_decl) ->
      let init =
        match d.Ast.s_init with
        | Some v -> v
        | None -> Ast.default_value d.Ast.s_ty
      in
      Hashtbl.replace by_name d.Ast.s_name init)
    decls;
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) by_name []
    |> List.sort String.compare
    |> Array.of_list
  in
  let n = Array.length names in
  let ids = Hashtbl.create (max 16 n) in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let initial = Array.map (fun name -> Hashtbl.find by_name name) names in
  {
    names;
    ids;
    initial;
    current = Array.copy initial;
    sched_val = Array.make n (Ast.VBool false);
    sched_mark = Array.make n false;
    sched_q = Array.make (max 1 n) 0;
    sched_scratch = Array.make (max 1 n) 0;
    n_sched = 0;
    intercept = None;
    notify = None;
  }

(** Rewind the store to its construction state: declaration-time values,
    empty update queue, no hooks.  Observably a fresh {!make} of the same
    declarations — the session cache uses it to reuse one store across
    runs of the same program. *)
let reset t =
  Array.blit t.initial 0 t.current 0 (Array.length t.initial);
  for k = 0 to t.n_sched - 1 do
    t.sched_mark.(t.sched_q.(k)) <- false
  done;
  t.n_sched <- 0;
  t.intercept <- None;
  t.notify <- None

(** A copy of the current values, taken between delta cycles (engine
    checkpoints): no update is pending then, and a store restored from
    it behaves exactly as it did when it was saved.  Hooks are not part
    of it. *)
type saved = Ast.value array

let save t =
  assert (t.n_sched = 0);
  Array.copy t.current

let restore t sv =
  Array.blit sv 0 t.current 0 (Array.length sv);
  for k = 0 to t.n_sched - 1 do
    t.sched_mark.(t.sched_q.(k)) <- false
  done;
  t.n_sched <- 0

let n_signals t = Array.length t.names
let id_of t name = Hashtbl.find_opt t.ids name
let name_of t id = t.names.(id)

let read_id t id = t.current.(id)

let read t name =
  match Hashtbl.find t.ids name with
  | id -> Some t.current.(id)
  | exception Not_found -> None

let schedule_id t id v =
  if not t.sched_mark.(id) then begin
    t.sched_mark.(id) <- true;
    t.sched_q.(t.n_sched) <- id;
    t.n_sched <- t.n_sched + 1
  end;
  t.sched_val.(id) <- v

(** Schedule a delta-delayed update.  Returns false if the name is not a
    signal.  The last schedule of a delta wins. *)
let schedule t name v =
  match Hashtbl.find t.ids name with
  | id ->
    schedule_id t id v;
    true
  | exception Not_found -> false

let pending t = t.n_sched > 0

let set_intercept t f = t.intercept <- f
let set_notify t f = t.notify <- f

(** Force a signal's current value immediately, outside the delta-cycle
    discipline (fault injection: stuck lines, delayed re-delivery).
    Returns false if the name is not a signal.  Fires the notify hook when
    the value actually changed. *)
let poke t name v =
  match id_of t name with
  | Some id ->
    if not (Ast.equal_value t.current.(id) v) then begin
      t.current.(id) <- v;
      match t.notify with None -> () | Some f -> f id
    end;
    true
  | None -> false

(** Apply all scheduled updates in ascending id order, calling [f] on
    each id whose current value actually changed, as it commits.  The
    allocation-free form of {!commit_ids} — the event-driven kernel
    wakes waiters straight from the callback instead of materializing
    the changed-id list every delta cycle. *)
(* One scheduled update: clear the mark, run the intercept, write the
   current value, and call [f] on an actual change.  Top-level (not
   nested in {!commit_iter}) so the single-signal fast path commits
   without allocating a closure. *)
let commit_one t f id =
  t.sched_mark.(id) <- false;
  let v = t.sched_val.(id) in
  let verdict =
    match t.intercept with None -> Pass | Some g -> g t.names.(id) v
  in
  match verdict with
  | Drop -> ()
  | Pass | Rewrite _ ->
    let v = match verdict with Rewrite v' -> v' | Pass | Drop -> v in
    if not (Ast.equal_value t.current.(id) v) then begin
      t.current.(id) <- v;
      f id
    end
    else t.current.(id) <- v

let commit_iter t f =
  (* Ascending id order = sorted name order.  Most deltas schedule one
     signal (a handshake edge) — no ordering needed at all; a handful
     insertion-sorts the short worklist in place; a wide delta flips to
     the mask scan, which is linear in the signal count rather than
     n log n.  The ids commit from [sched_scratch], and the live queue
     is emptied first, so an intercept or callback that schedules new
     updates mid-commit lands them cleanly in the next delta. *)
  let n = t.n_sched in
  if n = 0 then ()
  else if n = 1 then begin
    t.n_sched <- 0;
    commit_one t f t.sched_q.(0)
  end
  else begin
    let q = t.sched_q and sc = t.sched_scratch in
    if n <= 8 then begin
      Array.blit q 0 sc 0 n;
      for i = 1 to n - 1 do
        let x = sc.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && sc.(!j) > x do
          sc.(!j + 1) <- sc.(!j);
          decr j
        done;
        sc.(!j + 1) <- x
      done
    end
    else begin
      let k = ref 0 in
      for id = 0 to Array.length t.names - 1 do
        if t.sched_mark.(id) then begin
          sc.(!k) <- id;
          incr k
        end
      done
    end;
    t.n_sched <- 0;
    for k = 0 to n - 1 do
      commit_one t f sc.(k)
    done
  end

let commit_ids t =
  let changed = ref [] in
  commit_iter t (fun id -> changed := id :: !changed);
  List.rev !changed

(** Apply all scheduled updates; returns the signals whose value actually
    changed (sorted by name). *)
let commit_changes t =
  List.map (fun id -> (t.names.(id), t.current.(id))) (commit_ids t)

(** Current value of every signal, sorted by name — id order and name
    order coincide, so this is a single pass over the value array. *)
let snapshot t =
  Array.to_list (Array.mapi (fun id v -> (t.names.(id), v)) t.current)
