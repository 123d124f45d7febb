(** Turning fault specifications into simulation hooks.  The intercept
    counts the committed updates of every targeted signal (so
    occurrence-based faults hit the same edge on every run — the schedule
    is deterministic) and applies drop / delay / stuck-at decisions; the
    post-commit hook delivers delayed updates and flips memory bits.
    Each hook is installed only when some fault needs it. *)

open Spec

(* Stuck-at models a failed line and overrides transient faults on the
   same signal; drop and delay are checked in specification order.  [k]
   receives a delayed update's due delta, signal and value. *)
let decide faults ~delta ~name ~occurrence value k =
  let stuck =
    List.find_map
      (function
        | Fault.Stuck_at f when String.equal f.st_signal name && delta >= f.st_delta
          ->
          Some (Sim.Sigtable.Rewrite f.st_value)
        | _ -> None)
      faults
  in
  match stuck with
  | Some action -> action
  | None ->
    let transient =
      List.find_map
        (function
          | Fault.Drop_update f
            when String.equal f.du_signal name && occurrence = f.du_occurrence
            ->
            Some Sim.Sigtable.Drop
          | Fault.Delay_update f
            when String.equal f.dl_signal name && occurrence = f.dl_occurrence
            ->
            k (delta + f.dl_deltas) name value;
            Some Sim.Sigtable.Drop
          | _ -> None)
        faults
    in
    Option.value transient ~default:Sim.Sigtable.Pass

let target = function
  | Fault.Stuck_at f -> Some f.st_signal
  | Fault.Drop_update f -> Some f.du_signal
  | Fault.Delay_update f -> Some f.dl_signal
  | Fault.Flip_bit _ -> None

(* The occurrence counter of a targeted signal (its first entry, for a
   signal targeted twice); [None] (no allocation) for every other
   signal. *)
let rec counter name = function
  | [] -> None
  | (s, n) :: rest -> if String.equal s name then Some n else counter name rest

let hooks faults =
  (* Only targeted signals are counted: [decide] compares no other
     signal's occurrence, so every drop and delay still hits the same
     edge. *)
  let counters =
    List.map (fun s -> (s, ref 0)) (List.filter_map target faults)
  in
  let flips =
    List.filter_map
      (function
        | Fault.Flip_bit f -> Some (f.fl_var, f.fl_bit, f.fl_delta)
        | _ -> None)
      faults
  in
  let delays =
    List.exists (function Fault.Delay_update _ -> true | _ -> false) faults
  in
  let delayed = ref [] in
  let delay due name v = delayed := (due, name, v) :: !delayed in
  let intercept ~delta name value =
    match counter name counters with
    | None -> Sim.Sigtable.Pass
    | Some n ->
      incr n;
      decide faults ~delta ~name ~occurrence:!n value delay
  in
  let on_commit (probe : Sim.Engine.probe) =
    let now = probe.Sim.Engine.pr_delta in
    (match !delayed with
    | [] -> ()
    | pending ->
      let due, keep = List.partition (fun (d, _, _) -> d <= now) pending in
      delayed := keep;
      List.iter
        (fun (_, s, v) ->
          ignore (Sim.Sigtable.poke probe.Sim.Engine.pr_signals s v))
        due);
    List.iter
      (fun (var, bit, at) ->
        if at = now then
          match probe.Sim.Engine.pr_read_var var with
          | Some (Ast.VInt v) ->
            ignore
              (probe.Sim.Engine.pr_write_var var
                 (Ast.VInt (v lxor (1 lsl bit))))
          | Some (Ast.VBool b) ->
            ignore (probe.Sim.Engine.pr_write_var var (Ast.VBool (not b)))
          | None -> ())
      flips
  in
  {
    Sim.Engine.h_intercept = (if counters = [] then None else Some intercept);
    h_on_commit = (if flips = [] && not delays then None else Some on_commit);
    h_poll = None;
  }

let counting () =
  let occ : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let intercept ~delta:_ name _ =
    Hashtbl.replace occ name
      ((Option.value ~default:0 (Hashtbl.find_opt occ name)) + 1);
    Sim.Sigtable.Pass
  in
  ( { Sim.Engine.h_intercept = Some intercept; h_on_commit = None; h_poll = None },
    occ )
