(** Observable traces: the sequence of [emit] events a simulation
    produces.  Functional equivalence of an original and a refined
    specification is judged on this sequence plus the final values of the
    partitioned variables. *)

open Spec

type event = {
  ev_tag : string;
  ev_value : Ast.value;
  ev_delta : int;  (** delta cycle at which the event fired *)
}

type t = { mutable events : event list }

let make () = { events = [] }

(** Drop all recorded events — the session cache reuses one trace buffer
    across runs of the same program. *)
let clear t = t.events <- []

let record t ~delta ~tag ~value =
  t.events <- { ev_tag = tag; ev_value = value; ev_delta = delta } :: t.events

let events t = List.rev t.events

(* The recorded events are an immutable list, consed onto: a mark is the
   list itself, so marking and rewinding are O(1) and marks taken later
   in a run share the earlier ones' cells. *)
type mark = event list

let mark t = t.events
let rewind t m = t.events <- m

(** Equality up to timing: same tags and values in the same order. *)
let equivalent a b =
  let strip evs = List.map (fun e -> (e.ev_tag, e.ev_value)) evs in
  strip a = strip b

(** Per-tag projection: the ordered value sequence of each tag.  Two
    traces are projection-equivalent when every tag carries the same
    value sequence — the right notion for programs with parallel
    branches, whose cross-branch interleaving is scheduling-dependent and
    not preserved (nor required to be) by refinement. *)
let projections evs =
  let tags =
    List.fold_left
      (fun acc e -> if List.mem e.ev_tag acc then acc else e.ev_tag :: acc)
      [] evs
    |> List.rev
  in
  List.map
    (fun tag ->
      ( tag,
        List.filter_map
          (fun e -> if String.equal e.ev_tag tag then Some e.ev_value else None)
          evs ))
    tags

let projection_equivalent a b =
  let pa = projections a and pb = projections b in
  List.sort compare pa = List.sort compare pb

(** First index where the traces diverge, if any — for diagnostics. *)
let first_divergence a b =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs, y :: ys ->
      if (x.ev_tag, x.ev_value) = (y.ev_tag, y.ev_value) then go (i + 1) xs ys
      else Some i
    | _ :: _, [] | [], _ :: _ -> Some i
  in
  go 0 a b
