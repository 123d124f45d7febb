(** The event-driven simulation kernel.

    The polling kernel (retained as {!Reference}) walked the whole process
    tree every scheduling round and re-evaluated every blocked wait.  This
    kernel only ever touches work that can actually proceed:

    - a {e maintained runnable queue}: leaves enter it when instantiated,
      when their wait condition's signals change, or when they still have
      fuel-limited work left; a round runs exactly the queued leaves, in
      preorder (so scheduling order — and therefore every observable
      artifact — matches the polling kernel bit for bit);
    - {e sensitivity sets}: a leaf blocking on [wait until c] is parked
      under the interned ids of the signals [c] reads (classified once
      per wait site, when the VM compiles it), and each signal keeps a
      wait-set of parked
      leaves; a delta-cycle commit wakes only the leaves sensitive to a
      signal that actually changed.  A condition that reads frame
      {e variables} (which can change without any commit) keeps its leaf
      in a small polled set instead, preserving the polling kernel's
      wake-up semantics exactly;
    - {e structural dirtiness}: the TOC-arc advancement walk runs only
      when a leaf finished this round (plus once at startup) — between
      finishes the tree is at its advancement fixpoint, so the walk would
      be a no-op;
    - fault-injection {!Sigtable.poke}s report through the store's notify
      hook, so out-of-band value forcing re-arms waiters exactly like a
      commit does.

    Determinism argument: rounds are assembled as the sorted union of
    (progressing leaves, woken leaves, polled leaves), so within a round
    leaves run in preorder exactly as the polling kernel ran them; a leaf
    missing from the round is one whose wait condition cannot have changed
    since it blocked (no signal it reads changed, and it reads no
    variables), so running it would consume zero steps and change
    nothing.  Commits, intercept order, probe order and delta accounting
    are shared {!Runtime} code.

    Golden-prefix checkpoints: a fault run is the fault-free run until its
    first fault acts, so a run whose hooks declare that delta
    ([h_fault_from]) starts from a saved copy of the kernel state at an
    earlier delta of the same session instead of replaying the prefix.
    Every run starts from the same scheduler state (no slot or
    registration outlives a run), so a checkpoint stands for that delta
    of any run with the same program, slice and trace setting, and a
    resumed run reports the counters of a run from delta 0.

    Golden memo: a run whose only hooks are a commit log (and a poll),
    under sequentially consistent commits, is a pure function of the
    program and the config.  The session keeps the last such run's
    result, counters and log, and a later one with the same config is
    served from them without simulating. *)

open Spec
include Runtime

(* Index of an isolated bit (a power of two) — the runnable-mask scan
   extracts slots lowest-bit-first, which is ascending slot order. *)
let bit_index b =
  let i = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin
    i := 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    i := !i + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    i := !i + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    i := !i + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    i := !i + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr i;
  !i

type sched_stats = {
  st_rounds : int;  (** scheduling rounds executed *)
  st_leaf_runs : int;  (** interpreter activations across all rounds *)
  st_wakes : int;  (** parked leaves re-armed by a signal change *)
  st_rebuilds : int;  (** leaf-table rebuilds after structural change *)
}

type lstate =
  | Lrunnable  (** queued to run next round *)
  | Lparked  (** blocked; wait-sets of its condition's signals hold it *)
  | Lpolled  (** blocked on a condition that reads frame variables *)
  | Lfinished

type slot = {
  sl_machine : Vm.thread;
  sl_uid : int;
      (** session-unique slot identity; wait sites stamp it when their
          registration is recorded, so a repeat park is an O(1) check
          that survives slot turnover (a revived machine gets a fresh
          slot, hence a fresh uid, and re-registers) *)
  mutable sl_gen : int;
      (** machine generation at last rebuild: a recycled leaf (same
          machine, bumped generation) is a fresh process — it restarts
          runnable — but its wait-site classifications and wait-set
          registrations stay, since recycling reuses the same physical
          frames and cells *)
  mutable sl_state : lstate;
  mutable sl_idx : int;
      (** position in [ss_slots] as of the last rebuild — the wake path
          uses it to set the slot's runnable-mask bit without a search *)
  mutable sl_sites : Opcode.wait_site list;
      (** the wait sites this leaf has registered at, one per physical
          condition — a recycled leaf (whose registrations may have been
          purged while it was retired) re-registers from them *)
}

(* A session: one program's fully elaborated simulation state — frames
   and compiled bodies with their baked operands — kept between runs and
   rewound in place, plus the checkpoints its runs recorded.  The
   co-simulation checks, fault campaigns and explore sweeps run the same
   physical program hundreds to thousands of times; rebuilding all of
   that per run (and re-warming every cache from cold) dominated the
   kernel's profile.  Rewinding reuses the arm-pool discipline
   ({!Runtime.reset_node}) that already guarantees a rewound subtree is
   observably a fresh instantiation.  The scheduler slots and wait-set
   registrations live for one run only.  Sessions are domain-local: the
   explore pool runs simulations on several domains at once, and a
   shared store would be a data race. *)
type session = {
  ss_cx : Interp.context;
  ss_root_frame : Env.frame;
  ss_root : Vm.thread node;
  mutable ss_slots : slot array;
  ss_wait_sets : slot list array;
  mutable ss_busy : bool;
      (** a run is live in this session (reentrancy guard); a session
          abandoned mid-run by an exception is evicted, never reused *)
  mutable ss_stale : bool;
      (** a run has moved the state since elaboration or the last
          rewind *)
  mutable ss_ck_key : int * bool;
      (** the [slice] and [trace_signals] the checkpoints were taken
          under *)
  mutable ss_ck_every : int;  (** delta spacing of the checkpoints *)
  mutable ss_checkpoints : checkpoint list;  (** ascending delta *)
  mutable ss_golden : golden option;
      (** the last completed log-only run of this session *)
}

(* A pure run, as the golden memo keeps it: its config, result, counters
   and commit log. *)
and golden = {
  gd_config : config;
  gd_result : result;
  gd_stats : sched_stats;
  gd_log : Commit_log.t;
}

(* The kernel state at the top of a scheduling round, right after the
   commit that made the delta counter [ck_delta], in a run whose hooks
   had not acted yet — so it is the state of the hook-free run at that
   delta.  It holds everything a later round can read: signal values and
   pending updates, the trace so far, every frame cell and array of the
   live process tree and of its live procedure calls, the tree's
   structural state, each live leaf's activations, the scheduler's slots
   and wait-sets, and the counters a result reports. *)
and checkpoint = {
  ck_delta : int;
  ck_steps : int;
  ck_rounds : int;
  ck_leaf_runs : int;
  ck_wakes : int;
  ck_rebuilds : int;
  ck_signals : Sigtable.saved;
  ck_trace : Trace.mark;
  ck_signal_trace : (int * (string * Ast.value) list) list;  (** newest first *)
  ck_cells : Ast.value ref array;
  ck_values : Ast.value array;
  ck_arrays : Ast.value array array;
  ck_contents : Ast.value array array;
  ck_nodes : (Vm.thread node * Vm.thread nstate) array;
  ck_seqs : (Vm.thread seq_run * int * Vm.thread node) array;
  ck_threads : Vm.saved array;
  ck_slots : (Vm.thread * lstate * Opcode.wait_site list) array;
  ck_waits : int list array;
      (** per signal id, the indices in [ck_slots] of its wait-set *)
}

(* A session keeps at most [max_checkpoints]; when full, every other one
   is dropped and the spacing doubles, so the cap holds for a run of any
   length. *)
let checkpoint_spacing = 64
let max_checkpoints = 32

(* The default cap suits one-shot CLI runs (cosim originals + refined
   pairs).  A long-lived daemon serving many distinct specs widens it —
   the store is per-domain, so the cap bounds memory per worker. *)
let session_cap_atomic = Atomic.make 4

(* Slot uids are drawn from a process-wide counter: sessions are
   domain-local but the explore pool runs several domains, and a shared
   counter must not hand out duplicates. *)
let slot_uid_counter = Atomic.make 0
let fresh_slot_uid () = Atomic.fetch_and_add slot_uid_counter 1

let session_cap () = Atomic.get session_cap_atomic

let set_session_cap n =
  if n < 1 then invalid_arg "Engine.set_session_cap: cap < 1";
  Atomic.set session_cap_atomic n

(* A domain's sessions, keyed by physical program, most recently used
   first, and its golden-memo counters. *)
type store = {
  mutable st_sessions : (Ast.program * session) list;
  mutable st_golden_hits : int;
  mutable st_golden_misses : int;
}

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st_sessions = []; st_golden_hits = 0; st_golden_misses = 0 })

let rec take n = function
  | e :: rest when n > 0 -> e :: take (n - 1) rest
  | _ -> []

(* Check a session out of the domain-local store, moving it to the front,
   or elaborate from scratch on a miss.  A hit is only taken when the
   session is idle — a reentrant run of the same program (or a run racing
   a store eviction) gets a throwaway fresh session instead.  The session
   is not rewound: {!rewind} does that before it simulates. *)
let checkout_session store (p : Ast.program) =
  let fresh () =
    let cx =
      {
        Interp.cx_signals = Sigtable.make p.Ast.p_signals;
        cx_trace = Trace.make ();
        cx_procs = p.Ast.p_procs;
        cx_delta = 0;
      }
    in
    let root_frame = Env.make ~owner:p.Ast.p_name p.Ast.p_vars in
    {
      ss_cx = cx;
      ss_root_frame = root_frame;
      ss_root = instantiate Bytecode root_frame p.Ast.p_top;
      ss_slots = [||];
      ss_wait_sets = Array.make (Sigtable.n_signals cx.Interp.cx_signals) [];
      ss_busy = true;
      ss_stale = false;
      ss_ck_key = (0, false);
      ss_ck_every = checkpoint_spacing;
      ss_checkpoints = [];
      ss_golden = None;
    }
  in
  match List.partition (fun (p', _) -> p' == p) store.st_sessions with
  | [ ((_, ss) as hit) ], rest when not ss.ss_busy ->
    ss.ss_busy <- true;
    store.st_sessions <- hit :: rest;
    ss
  | _ :: _, _ -> fresh ()
  | [], _ ->
    let ss = fresh () in
    store.st_sessions <- (p, ss) :: take (session_cap () - 1) store.st_sessions;
    ss

(* Rewind a session to the freshly-elaborated state.  Hooks are cleared
   here and re-installed per run; variables, signals, trace and delta
   counter take their construction-time values.  The scheduler starts
   empty: no slot and no wait-set registration outlives a run, so a
   run's counters depend on its program and hooks alone — which is what
   lets a checkpoint taken in one run stand for the same delta of any
   other.  A freshly elaborated session is in that state already, and
   is not walked.  Called before every simulated run. *)
let rewind (p : Ast.program) ss =
  if ss.ss_stale then begin
    Sigtable.reset ss.ss_cx.Interp.cx_signals;
    Trace.clear ss.ss_cx.Interp.cx_trace;
    ss.ss_cx.Interp.cx_delta <- 0;
    Env.reinitialize ss.ss_root_frame p.Ast.p_vars;
    reset_node ss.ss_root;
    ss.ss_slots <- [||];
    Array.fill ss.ss_wait_sets 0 (Array.length ss.ss_wait_sets) []
  end;
  ss.ss_stale <- true

let evict_session store (p : Ast.program) ss =
  store.st_sessions <-
    List.filter (fun (p', ss') -> p' != p || ss' != ss) store.st_sessions

(* Take a checkpoint of the session as it stands at the top of a round.
   The scheduler counters and the signal trace live in the run, so the
   caller passes them. *)
let save_checkpoint ss ~steps ~rounds ~leaf_runs ~wakes ~rebuilds
    ~signal_trace =
  let cells = ref [] and arrays = ref [] in
  let nodes = ref [] and seqs = ref [] and threads = ref [] in
  let frame (f : Env.frame) =
    Hashtbl.iter (fun _ c -> cells := c :: !cells) f.Env.f_vars;
    Hashtbl.iter (fun _ a -> arrays := a :: !arrays) f.Env.f_arrays
  in
  frame ss.ss_root_frame;
  let rec walk node =
    frame node.nd_frame;
    nodes := (node, node.nd_state) :: !nodes;
    match node.nd_state with
    | Ndone -> ()
    | Nleaf t ->
      threads := Vm.save t :: !threads;
      List.iter frame (Vm.call_frames t)
    | Nseq s ->
      seqs := (s, s.s_idx, s.s_child) :: !seqs;
      walk s.s_child
    | Npar children -> List.iter walk children
  in
  walk ss.ss_root;
  let cells = Array.of_list !cells and arrays = Array.of_list !arrays in
  let slots = ss.ss_slots in
  let index sl =
    let i = sl.sl_idx in
    if i >= 0 && i < Array.length slots && slots.(i) == sl then Some i
    else None
  in
  {
    ck_delta = ss.ss_cx.Interp.cx_delta;
    ck_steps = steps;
    ck_rounds = rounds;
    ck_leaf_runs = leaf_runs;
    ck_wakes = wakes;
    ck_rebuilds = rebuilds;
    ck_signals = Sigtable.save ss.ss_cx.Interp.cx_signals;
    ck_trace = Trace.mark ss.ss_cx.Interp.cx_trace;
    ck_signal_trace = signal_trace;
    ck_cells = cells;
    ck_values = Array.map ( ! ) cells;
    ck_arrays = arrays;
    ck_contents = Array.map Array.copy arrays;
    ck_nodes = Array.of_list !nodes;
    ck_seqs = Array.of_list !seqs;
    ck_threads = Array.of_list !threads;
    ck_slots =
      Array.map (fun sl -> (sl.sl_machine, sl.sl_state, sl.sl_sites)) slots;
    ck_waits = Array.map (List.filter_map index) ss.ss_wait_sets;
  }

(* Put the session back in a checkpoint's state.  Nodes, frames and
   threads outside the checkpoint's live tree keep whatever state they
   have: nothing reaches them again before {!Runtime.reset_node} rewinds
   them.  The slots are rebuilt with fresh uids, so no wait site's
   registration stamp, set after the checkpoint was taken, can match
   one. *)
let restore_checkpoint ss ck =
  let cx = ss.ss_cx in
  Sigtable.restore cx.Interp.cx_signals ck.ck_signals;
  Trace.rewind cx.Interp.cx_trace ck.ck_trace;
  cx.Interp.cx_delta <- ck.ck_delta;
  Array.iteri (fun i c -> c := ck.ck_values.(i)) ck.ck_cells;
  Array.iteri
    (fun i a -> Array.blit ck.ck_contents.(i) 0 a 0 (Array.length a))
    ck.ck_arrays;
  Array.iter (fun (node, st) -> node.nd_state <- st) ck.ck_nodes;
  Array.iter
    (fun (s, idx, child) ->
      s.s_idx <- idx;
      s.s_child <- child)
    ck.ck_seqs;
  Array.iter Vm.restore ck.ck_threads;
  let slots =
    Array.mapi
      (fun i (m, st, sites) ->
        {
          sl_machine = m;
          sl_uid = fresh_slot_uid ();
          sl_gen = Vm.gen m;
          sl_state = st;
          sl_idx = i;
          sl_sites = sites;
        })
      ck.ck_slots
  in
  ss.ss_slots <- slots;
  Array.iteri
    (fun id idxs -> ss.ss_wait_sets.(id) <- List.map (fun i -> slots.(i)) idxs)
    ck.ck_waits

(* File a checkpoint, keeping the list in ascending delta order and at
   most [max_checkpoints] long. *)
let add_checkpoint ss ck =
  let rec insert = function
    | c :: rest when c.ck_delta < ck.ck_delta -> c :: insert rest
    | l -> ck :: l
  in
  ss.ss_checkpoints <- insert ss.ss_checkpoints;
  if List.length ss.ss_checkpoints > max_checkpoints then begin
    ss.ss_ck_every <- 2 * ss.ss_ck_every;
    ss.ss_checkpoints <-
      List.filter (fun c -> c.ck_delta mod ss.ss_ck_every = 0) ss.ss_checkpoints
  end

let run_in_session ~(config : config) ~(hooks : hooks) ~ordering
    (p : Ast.program) ss =
  let cx = ss.ss_cx in
  let sigs = cx.Interp.cx_signals in
  let n_sig = Sigtable.n_signals sigs in
  let root_frame = ss.ss_root_frame in
  let root = ss.ss_root in
  let total_steps = ref 0 in
  let outcome = ref None in
  let signal_trace = ref [] in
  let rounds = ref 0
  and leaf_runs = ref 0
  and wakes = ref 0
  and rebuilds = ref 0 in
  install_intercept cx hooks ordering;
  (* Apply one scheduler-chosen release of diverted port updates: pokes,
     not schedules, so the delta counter is untouched and waiters wake
     through the notify hook exactly as fault pokes do. *)
  let release_ordered () =
    match ordering with
    | Some mo when Memord.pending mo ->
      List.iter
        (fun (name, v) -> ignore (Sigtable.poke sigs name v))
        (Memord.release mo)
    | _ -> ()
  in
  (* --- scheduler state ------------------------------------------------ *)
  let wait_sets = ss.ss_wait_sets in
  (* Probe name->cell resolutions are stable between structural changes:
     cache them (fault campaigns poke the same storage cells at every
     commit) and drop the cache whenever the tree changes shape. *)
  let probe_cache : (string, Ast.value ref option) Hashtbl.t =
    Hashtbl.create 32
  in
  (* The runnable set is the slots whose state is [Lrunnable] or
     [Lpolled]; a round visits them in ascending index order — the
     preorder the polling kernel used — by scanning the slot array
     directly.  A maintained index queue used to shadow this set, but
     per-round list building, sorting and merging of woken indices was
     pure allocator churn: the scan is branch-per-slot, allocation-free,
     and identical in visit order (wakes only happen between rounds, so
     the set is stable while a round scans it).  [n_active] counts that
     set, so the every-other round in a handshake exchange — every leaf
     parked, one commit pending — skips the scan entirely. *)
  let n_active = ref 0 in
  (* The same set as a bitmask over slot indices, for sessions of at most
     62 slots (an OCaml int's worth, sign bit spared): a round then visits
     exactly the runnable and polled slots, lowest index first, instead of
     filtering the whole slot array.  Wider sessions fall back to the
     scan. *)
  let run_mask = ref 0 in
  let mask_ok = ref true in
  let mask_set sl =
    if !mask_ok then run_mask := !run_mask lor (1 lsl sl.sl_idx)
  in
  let mask_clear sl =
    if !mask_ok then run_mask := !run_mask land lnot (1 lsl sl.sl_idx)
  in
  (* Register a leaf parked at [ws] in the wait-sets of the signals its
     condition reads.  The VM classified the site at compile time by the
     rule evaluation resolves names with: a condition that reads a frame
     cell, an array or an unbound name can change without a commit, so
     it is polled and registers nowhere. *)
  let register sl (ws : Opcode.wait_site) =
    if not ws.Opcode.ws_polled then
      List.iter
        (fun id ->
          if not (List.memq sl wait_sets.(id)) then
            wait_sets.(id) <- sl :: wait_sets.(id))
        ws.Opcode.ws_ids
  in
  (* Number the slots in order and derive the runnable set from their
     states. *)
  let reindex () =
    let active = ref 0 in
    mask_ok := Array.length ss.ss_slots <= 62;
    run_mask := 0;
    Array.iteri
      (fun i sl ->
        sl.sl_idx <- i;
        match sl.sl_state with
        | Lrunnable | Lpolled ->
          incr active;
          if !mask_ok then run_mask := !run_mask lor (1 lsl i)
        | Lparked | Lfinished -> ())
      ss.ss_slots;
    n_active := !active
  in
  (* Incremental rebuild after a structural change.  A TOC transition
     replaces one subtree; every other leaf keeps its thread, and with it
     its slot: park state, classification cache and wait-set registrations
     all stay valid, because advancing the tree of control touches no
     signal value — a parked leaf's pure-signal condition cannot have
     become true.  Only genuinely new leaves enter runnable.  (The polling
     kernel instead re-ran {e every} leaf after a change; for the
     survivors that visit was a guaranteed no-op, so skipping it is
     observationally identical.)  Slots of vanished leaves are retired to
     [Lfinished] so their stale wait-set entries can never wake. *)
  let rebuild () =
    incr rebuilds;
    let old = ss.ss_slots in
    let taken = Array.make (Array.length old) false in
    let find_old m =
      let n = Array.length old in
      let rec go i =
        if i >= n then None
        else if (not taken.(i)) && old.(i).sl_machine == m then begin
          taken.(i) <- true;
          Some old.(i)
        end
        else go (i + 1)
      in
      go 0
    in
    ss.ss_slots <-
      Array.of_list
        (List.map
           (fun m ->
             match find_old m with
             | Some sl ->
               (* A bumped generation means the leaf was recycled by a
                  TOC re-entry.  Observably a fresh process, so it
                  restarts runnable.  Its [sl_sites]
                  are kept: recycling reuses the same physical frames and
                  cells ({!Vm.reset}, {!Env.reinitialize}), so a condition
                  resolves exactly as it did last generation.  Its
                  wait-set registrations may have been purged while it
                  was retired, so its sites re-register. *)
               if sl.sl_gen <> Vm.gen m then begin
                 sl.sl_gen <- Vm.gen m;
                 sl.sl_state <- Lrunnable;
                 List.iter (register sl) sl.sl_sites
               end;
               sl
             | None ->
               {
                 sl_machine = m;
                 sl_uid = fresh_slot_uid ();
                 sl_gen = Vm.gen m;
                 sl_state = Lrunnable;
                 sl_idx = -1;
                 sl_sites = [];
               })
           (leaves root));
    Array.iteri (fun i sl -> if not taken.(i) then sl.sl_state <- Lfinished) old;
    reindex ();
    let dead sl =
      match sl.sl_state with
      | Lfinished -> true
      | Lrunnable | Lparked | Lpolled -> false
    in
    for id = 0 to n_sig - 1 do
      match wait_sets.(id) with
      | [] -> ()
      | ws ->
        if List.exists dead ws then
          wait_sets.(id) <- List.filter (fun sl -> not (dead sl)) ws
    done;
    Hashtbl.reset probe_cache
  in
  (* Park a leaf blocked at [ws].  After the first park the site is
     stamped with the slot's uid and its wait-set registrations are in
     place, so a repeat park — the steady state of a handshake loop — is
     one test and a state flip. *)
  let park sl (ws : Opcode.wait_site) =
    sl.sl_state <- (if ws.Opcode.ws_polled then Lpolled else Lparked);
    if ws.Opcode.ws_reg_uid <> sl.sl_uid then begin
      register sl ws;
      (* A wait inside a procedure body can come back compiled for a
         fresh frame on a later call: replace its entry rather than
         letting the site list grow (and every rebuild pay for it) per
         call. *)
      let rec replace = function
        | [] -> [ ws ]
        | ws' :: rest when ws'.Opcode.ws_expr == ws.Opcode.ws_expr ->
          ws :: rest
        | ws' :: rest -> ws' :: replace rest
      in
      sl.sl_sites <- replace sl.sl_sites;
      ws.Opcode.ws_reg_uid <- sl.sl_uid
    end
  in
  let wake id =
    List.iter
      (fun sl ->
        match sl.sl_state with
        | Lparked ->
          sl.sl_state <- Lrunnable;
          incr n_active;
          mask_set sl;
          incr wakes
        | Lrunnable | Lpolled | Lfinished -> ())
      wait_sets.(id)
  in
  Sigtable.set_notify sigs (Some wake);
  let find_cell_cached name =
    match Hashtbl.find_opt probe_cache name with
    | Some res -> res
    | None ->
      let res = find_cell root_frame root name in
      Hashtbl.replace probe_cache name res;
      res
  in
  (* The accessors are built once per run; a commit allocates only the
     probe record itself. *)
  let pr_read_var name = Option.map ( ! ) (find_cell_cached name) in
  let pr_write_var name v =
    match find_cell_cached name with
    | Some cell ->
      cell := v;
      true
    | None -> false
  in
  let probe () =
    {
      pr_delta = cx.Interp.cx_delta;
      pr_signals = sigs;
      pr_read_var;
      pr_write_var;
    }
  in
  (* The first round must advance unconditionally, like the polling
     kernel's first round: instantiation can produce already-done nodes
     (empty compositions) whose completion has to propagate.  After that,
     the tree sits at its advancement fixpoint until a leaf finishes. *)
  let first_round = ref true in
  (* Checkpoints.  A run whose hooks promise to act on nothing before
     delta [q], under sequentially consistent commits, is the hook-free
     run up to [q]: it starts from the latest checkpoint at or before [q]
     that its budget admits, and records new ones up to [q] as it goes.
     Every other run starts from delta 0 and records nothing. *)
  let ck_upto =
    match (hooks.h_fault_from, ordering) with
    | Some q, None -> q
    | Some _, Some _ | None, _ -> -1
  in
  let ck_key = (config.slice, config.trace_signals) in
  if ck_upto > 0 && ss.ss_ck_key <> ck_key then begin
    ss.ss_ck_key <- ck_key;
    ss.ss_ck_every <- checkpoint_spacing;
    ss.ss_checkpoints <- []
  end;
  let resume =
    if ck_upto <= 0 then None
    else
      List.fold_left
        (fun acc ck ->
          if
            ck.ck_delta <= ck_upto
            && ck.ck_delta <= config.max_deltas
            && ck.ck_steps <= config.max_steps
          then Some ck
          else acc)
        None ss.ss_checkpoints
  in
  begin match resume with
  | None ->
    rebuild ();
    rebuilds := 0
  | Some ck ->
    restore_checkpoint ss ck;
    reindex ();
    total_steps := ck.ck_steps;
    rounds := ck.ck_rounds;
    leaf_runs := ck.ck_leaf_runs;
    wakes := ck.ck_wakes;
    rebuilds := ck.ck_rebuilds;
    signal_trace := ck.ck_signal_trace;
    first_round := false
  end;
  let record () =
    let d = cx.Interp.cx_delta in
    if not (List.exists (fun ck -> ck.ck_delta = d) ss.ss_checkpoints) then
      add_checkpoint ss
        (save_checkpoint ss ~steps:!total_steps ~rounds:!rounds
           ~leaf_runs:!leaf_runs ~wakes:!wakes ~rebuilds:!rebuilds
           ~signal_trace:!signal_trace)
  in
  (* Reused across rounds: a couple of thousand rounds per run would
     otherwise each allocate a fresh pair of refs. *)
  let ran = ref false and finished_any = ref false in
  let visit sl =
    match sl.sl_state with
    | Lfinished | Lparked -> ()
    | Lrunnable | Lpolled ->
      incr leaf_runs;
      let t = sl.sl_machine in
      let status = Vm.run cx t ~fuel:config.slice in
      let steps = t.Vm.th_steps in
      total_steps := !total_steps + steps;
      if steps > 0 then ran := true;
      begin match status with
      | Vm.Progress -> sl.sl_state <- Lrunnable
      | Vm.Finished ->
        sl.sl_state <- Lfinished;
        decr n_active;
        mask_clear sl;
        finished_any := true
      | Vm.Blocked ->
        (match t.Vm.th_blocked with
        | Some ws -> park sl ws
        | None -> assert false);
        (match sl.sl_state with
        | Lparked ->
          decr n_active;
          mask_clear sl
        | Lrunnable | Lpolled | Lfinished -> ())
      end
  in
  while !outcome = None do
    incr rounds;
    if poll_cancelled hooks then outcome := Some Cancelled
    else begin
    (* One round: visit the queued leaves in ascending index order — the
       preorder the polling kernel used.  A leaf stays queued while it is
       runnable or polled; parking or finishing drops it.  Every leaf not
       on the queue is one whose visit would have been a no-op, so the
       round is observably identical to a full preorder walk. *)
    ran := false;
    finished_any := false;
    if !n_active > 0 then begin
      let slot_arr = ss.ss_slots in
      if !mask_ok then begin
        (* No leaf's run can change another slot's state (bodies only
           schedule updates; commits, pokes and structural advancement
           all happen between scans), so the mask snapshot taken bit by
           bit here is exactly the runnable set, in ascending order. *)
        let m = ref !run_mask in
        while !m <> 0 do
          let b = !m land (- !m) in
          m := !m lxor b;
          visit (Array.unsafe_get slot_arr (bit_index b))
        done
      end
      else
        for i = 0 to Array.length slot_arr - 1 do
          visit (Array.unsafe_get slot_arr i)
        done
    end;
    let structural =
      if !finished_any || !first_round then advance_fixpoint cx root
      else false
    in
    if structural then rebuild ();
    first_round := false;
    if !total_steps > config.max_steps then outcome := Some Step_limit
    else if ((not !ran) || !n_active = 0) && not structural then begin
      (* Quiescent.  [not ran] is the polling kernel's test — a full
         round made no progress.  [n_active = 0] reaches the same
         verdict one round early: every leaf is parked or finished, so
         the next scan is a guaranteed no-op and the round that would
         discover it can be skipped.  In the handshake steady state
         this fuses run-round and commit-round into one. *)
      if Sigtable.pending sigs then begin
        if config.trace_signals then begin
          let changed = Sigtable.commit_ids sigs in
          cx.Interp.cx_delta <- cx.Interp.cx_delta + 1;
          if changed <> [] then
            signal_trace :=
              ( cx.Interp.cx_delta,
                List.map
                  (fun id ->
                    (Sigtable.name_of sigs id, Sigtable.read_id sigs id))
                  changed )
              :: !signal_trace;
          List.iter wake changed
        end
        else begin
          (* Wake waiters straight from the commit walk — same ascending
             id order as the materialized list, without allocating it. *)
          Sigtable.commit_iter sigs wake;
          cx.Interp.cx_delta <- cx.Interp.cx_delta + 1
        end;
        (* [match] rather than [Option.iter (fun f -> ...)]: the latter
           allocates the closure every commit even with no hook set. *)
        (match hooks.h_on_commit with
        | None -> ()
        | Some f -> f (probe ()));
        (* Post-commit release point: keeps diverted updates draining
           while watchdog ticks (or other self-pacing traffic) prevent
           the network from ever going quiescent. *)
        release_ordered ();
        if cx.Interp.cx_delta > config.max_deltas then
          outcome := Some Step_limit
        else if
          cx.Interp.cx_delta <= ck_upto
          && cx.Interp.cx_delta mod ss.ss_ck_every = 0
        then record ()
      end
      else begin
        (* Quiescent: no runnable leaf and no scheduled update.  Diverted
           port updates release here, one scheduler choice per round,
           before the kernel may conclude Completed or Deadlock. *)
        match ordering with
        | Some mo when Memord.pending mo -> release_ordered ()
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
  ( {
      r_outcome = outcome;
      r_trace = Trace.events cx.Interp.cx_trace;
      r_deltas = cx.Interp.cx_delta;
      r_steps = !total_steps;
      r_final = final_values root_frame root;
      r_signal_trace = List.rev !signal_trace;
    },
    {
      st_rounds = !rounds;
      st_leaf_runs = !leaf_runs;
      st_wakes = !wakes;
      st_rebuilds = !rebuilds;
    } )

(* The commit log of a run the golden memo may serve: one whose only
   hooks are the log and a poll, under sequentially consistent commits. *)
let golden_log hooks ordering =
  match (hooks, ordering) with
  | { h_log = Some log; h_intercept = None; h_on_commit = None; _ }, None ->
    Some log
  | _ -> None

(* One run in a checked-out session: served from the golden memo, or
   simulated. *)
let serve_or_simulate store ss ~config ~hooks ~ordering p =
  match golden_log hooks ordering with
  | None ->
    rewind p ss;
    run_in_session ~config ~hooks ~ordering p ss
  | Some log ->
    begin match ss.ss_golden with
    (* The poll still runs once: a cancelled golden run simulates, and so
       ends [Cancelled] as it would without the memo. *)
    | Some gd when gd.gd_config = config && not (poll_cancelled hooks) ->
      store.st_golden_hits <- store.st_golden_hits + 1;
      Commit_log.append log ~from:gd.gd_log;
      (gd.gd_result, gd.gd_stats)
    | Some _ | None ->
      store.st_golden_misses <- store.st_golden_misses + 1;
      (* The run records into a log of its own, so the memo keeps exactly
         its commits whatever the caller's log already held. *)
      let own = Commit_log.create () in
      rewind p ss;
      let ((result, stats) as res) =
        run_in_session ~config ~hooks:{ hooks with h_log = Some own }
          ~ordering p ss
      in
      Commit_log.append log ~from:own;
      if result.r_outcome <> Cancelled then
        ss.ss_golden <-
          Some
            {
              gd_config = config;
              gd_result = result;
              gd_stats = stats;
              gd_log = own;
            };
      res
    end

let run_stats ?(config = default_config) ?(hooks = no_hooks) ?ordering
    (p : Ast.program) =
  let store = Domain.DLS.get store_key in
  let ss = checkout_session store p in
  match serve_or_simulate store ss ~config ~hooks ~ordering p with
  | res ->
    ss.ss_busy <- false;
    res
  | exception e ->
    (* An abandoned mid-run session is in an unknown state: never reuse
       it. *)
    evict_session store p ss;
    raise e

let run ?config ?hooks ?ordering p = fst (run_stats ?config ?hooks ?ordering p)

let checkpoint_deltas (p : Ast.program) =
  let store = Domain.DLS.get store_key in
  match List.assq_opt p store.st_sessions with
  | Some ss -> List.map (fun ck -> ck.ck_delta) ss.ss_checkpoints
  | None -> []

type sessions_stats = {
  se_golden_hits : int;
  se_golden_misses : int;
  se_sessions : int;
  se_checkpoints : int;
}

let sessions_stats () =
  let store = Domain.DLS.get store_key in
  {
    se_golden_hits = store.st_golden_hits;
    se_golden_misses = store.st_golden_misses;
    se_sessions = List.length store.st_sessions;
    se_checkpoints =
      List.fold_left
        (fun n (_, ss) -> n + List.length ss.ss_checkpoints)
        0 store.st_sessions;
  }
