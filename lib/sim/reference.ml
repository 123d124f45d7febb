(** The retained polling scheduler: every scheduling round walks the whole
    process tree, gives every live leaf a slice (blocked leaves re-evaluate
    their wait condition and consume no steps), and re-runs the structural
    advancement to fixpoint.  This was the production kernel before the
    event-driven scheduler ({!Engine}) replaced it; it is kept as the
    differential-testing baseline.  Both kernels share {!Runtime}; this
    one runs leaves on the tree-walking interpreter and the engine on the
    bytecode VM, so an observable divergence is a scheduling bug or a
    compiler/VM bug. *)

open Spec
open Runtime

let run ?(config = default_config) ?(hooks = no_hooks) ?ordering
    (p : Ast.program) =
  let cx =
    {
      Interp.cx_signals = Sigtable.make p.Ast.p_signals;
      cx_trace = Trace.make ();
      cx_procs = p.Ast.p_procs;
      cx_delta = 0;
    }
  in
  let root_frame = Env.make ~owner:p.Ast.p_name p.Ast.p_vars in
  (* The polling oracle drives the tree-walking interpreter: with the
     engine running the bytecode VM, the differential suite crosses
     schedulers {e and} leaf machines in one comparison. *)
  let root = instantiate Tree root_frame p.Ast.p_top in
  let total_steps = ref 0 in
  let outcome = ref None in
  let signal_trace = ref [] in
  (* The event-driven kernel's intercept composition.  This kernel fills
     the commit log itself and keeps no golden memo, so its golden run
     owes nothing to the engine. *)
  install_intercept cx hooks ordering;
  (* Same release points as the event-driven kernel (post-commit and
     quiescent rounds), so the scheduler consumes its seed identically
     and a (policy, seed) pair replays bit-identically on both. *)
  let release_ordered () =
    match ordering with
    | Some mo when Memord.pending mo ->
      List.iter
        (fun (name, v) -> ignore (Sigtable.poke cx.Interp.cx_signals name v))
        (Memord.release mo)
    | _ -> ()
  in
  (* As in the event-driven kernel: accessors once per run, one probe
     record per commit. *)
  let pr_read_var name = Option.map ( ! ) (find_cell root_frame root name) in
  let pr_write_var name v =
    match find_cell root_frame root name with
    | Some cell ->
      cell := v;
      true
    | None -> false
  in
  let probe () =
    {
      pr_delta = cx.Interp.cx_delta;
      pr_signals = cx.Interp.cx_signals;
      pr_read_var;
      pr_write_var;
    }
  in
  while !outcome = None do
    if poll_cancelled hooks then outcome := Some Cancelled
    else begin
    (* Run every runnable leaf for one slice. *)
    let ran = ref false in
    List.iter
      (fun exec ->
        if exec.Interp.stack <> [] then begin
          let _, steps = Interp.run cx exec ~fuel:config.slice in
          total_steps := !total_steps + steps;
          if steps > 0 then ran := true
        end)
      (leaves root);
    let structural = advance_fixpoint cx root in
    if !total_steps > config.max_steps then outcome := Some Step_limit
    else if (not !ran) && not structural then begin
      if Sigtable.pending cx.Interp.cx_signals then begin
        let changes = Sigtable.commit_changes cx.Interp.cx_signals in
        cx.Interp.cx_delta <- cx.Interp.cx_delta + 1;
        if config.trace_signals && changes <> [] then
          signal_trace := (cx.Interp.cx_delta, changes) :: !signal_trace;
        Option.iter (fun f -> f (probe ())) hooks.h_on_commit;
        release_ordered ();
        if cx.Interp.cx_delta > config.max_deltas then
          outcome := Some Step_limit
      end
      else begin
        match ordering with
        | Some mo when Memord.pending mo ->
          (* Quiescent: release diverted port updates as pokes — the
             polling walk re-evaluates every wait condition next round
             anyway. *)
          release_ordered ()
        | _ ->
          if effectively_done p.Ast.p_servers root then
            outcome := Some Completed
          else
            outcome :=
              Some (Deadlock (List.rev (blocked_descriptions cx [] root)))
      end
    end
    end
  done;
  let outcome = Option.get !outcome in
  {
    r_outcome = outcome;
    r_trace = Trace.events cx.Interp.cx_trace;
    r_deltas = cx.Interp.cx_delta;
    r_steps = !total_steps;
    r_final = final_values root_frame root;
    r_signal_trace = List.rev !signal_trace;
  }
