(** The process-tree runtime shared by the simulation kernels:
    instantiation, TOC-arc advancement, completion/deadlock analysis and
    final-value readout.  {!Engine} (event-driven, bytecode-VM leaves)
    and {!Reference} (round-robin polling, tree-walking leaves, kept as
    the differential baseline) both drive exactly this machinery, so all
    observable behavior is common code. *)

open Spec

type config = {
  max_steps : int;  (** total interpreter steps across all processes *)
  max_deltas : int;
  slice : int;  (** interpreter steps per process per scheduling round *)
  trace_signals : bool;
      (** record every committed signal change (for waveform dumps) *)
}

val default_config : config

type outcome =
  | Completed
  | Deadlock of string list  (** blocked process descriptions *)
  | Step_limit
  | Cancelled  (** the [h_poll] hook asked the kernel to stop *)

type result = {
  r_outcome : outcome;
  r_trace : Trace.event list;
  r_deltas : int;
  r_steps : int;
  r_final : (string * Ast.value) list;
  r_signal_trace : (int * (string * Ast.value) list) list;
}

type probe = {
  pr_delta : int;
  pr_signals : Sigtable.t;
  pr_read_var : string -> Ast.value option;
  pr_write_var : string -> Ast.value -> bool;
}

type hooks = {
  h_intercept : (delta:int -> string -> Ast.value -> Sigtable.action) option;
  h_on_commit : (probe -> unit) option;
  h_poll : (unit -> bool) option;
      (** cooperative cancellation: checked once per scheduling round;
          returning [true] stops the run with {!Cancelled}.  The {e exact}
          interruption point is kernel-dependent (rounds differ between
          the event-driven and polling schedulers), so only the outcome —
          never the partial trace — is comparable across kernels. *)
  h_fault_from : int option;
      (** The hooks' promise about where they start to act.  [Some q]: the
          intercept is inert (passes every update, keeps no count) on the
          commit of every delta cycle before [q], and the post-commit hook
          on every commit up to delta [q]; the run is therefore the
          hook-free run up to delta [q], and {!Engine} may start it from a
          checkpoint of that run instead of from delta 0.  [None]: the
          hooks may act from delta 0 ({!no_hooks}, and the golden hooks,
          which carry only an [h_log]).  {!Reference} ignores it and
          always replays from 0. *)
  h_log : Commit_log.t option;
      (** The run's commit log: both kernels record into it every
          scheduled update at commit time, tagged with the delta cycle
          being committed, before [h_intercept] and the [ordering] layer
          see it.  A run whose only hooks are the log (and [h_poll]) is
          pure, and {!Engine} may serve it from its golden memo. *)
}

val no_hooks : hooks

val poll_cancelled : hooks -> bool
(** The round-boundary cancellation check both kernels share: [false]
    without an [h_poll] hook. *)

val install_intercept : Interp.context -> hooks -> Memord.t option -> unit
(** Install the run's update intercept on the context's signal store, the
    same for both kernels: the commit log records the update, the fault
    hook decides, then the ordering layer may divert what passes into a
    port FIFO.  Without a log, a fault hook and an ordering nothing is
    installed. *)

(** {1 The instantiated process tree} *)

(** The leaf machine a process tree runs, indexed by the machine's type:
    the tree-walking interpreter ({!Interp}), which {!Reference} drives,
    or the bytecode register VM ({!Vm}), which {!Engine} drives.  Each
    kernel fixes its own when it instantiates; no caller chooses.  Both
    produce bit-identical observables — the differential tests enforce
    it. *)
type _ leaf_kind = Tree : Interp.exec leaf_kind | Bytecode : Vm.thread leaf_kind

type 'm nstate =
  | Nleaf of 'm
  | Nseq of 'm seq_run
  | Npar of 'm node list
  | Ndone

and 'm seq_run = {
  mutable s_idx : int;
  mutable s_child : 'm node;
  s_arms : Ast.seq_arm array;
  s_pool : 'm node option array;
      (** per arm, the subtree built when the arm was last entered;
          re-entering an arm rewinds it in place instead of
          instantiating a fresh one *)
  mutable s_conds : (Ast.expr * Vm.cond_prog) list;
      (** TOC-arc conditions compiled for the VM, keyed by physical
          expression *)
}

and 'm node = {
  nd_behavior : Ast.behavior;
  nd_frame : Env.frame;
  nd_kind : 'm leaf_kind;
  mutable nd_state : 'm nstate;
  nd_keep : 'm keep;
      (** the structure behind [nd_state], retained past completion so a
          re-entered arm can be rewound instead of rebuilt *)
}

and 'm keep =
  | Kleaf of 'm
  | Kseq of 'm seq_run
  | Kpar of 'm node list
  | Knone  (** empty composition: born done *)

val instantiate : 'm leaf_kind -> Env.frame -> Ast.behavior -> 'm node
(** Build the process tree over the given leaf machine. *)

val reset_node : 'm node -> unit
(** Rewind a previously-built subtree to its freshly-instantiated state,
    in place: cells and arrays are overwritten (never replaced), leaf
    machines restart at the top of their compiled bodies, sequential
    compositions re-enter their first arm.  Observably identical to
    {!instantiate} without rebuilding any frame, table or compiled
    body. *)

val leaves : 'm node -> 'm list
(** All live leaf machines, in preorder — the deterministic scheduling
    order of both kernels. *)

val advance_fixpoint : Interp.context -> 'm node -> bool
(** Iterate {!advance} to quiescence; true when anything changed at all.
    After it returns, no further structural change is possible until
    another leaf finishes. *)

val effectively_done : string list -> 'm node -> bool
(** Completion up to registered servers: done, a server, or a parallel
    composition of effectively done children. *)

val blocked_descriptions :
  Interp.context -> string list -> 'm node -> string list

val final_values : Env.frame -> 'm node -> (string * Ast.value) list

val find_cell : Env.frame -> 'm node -> string -> Ast.value ref option
(** Probe access: the cell of a declared variable, root frame first, then
    preorder over the live tree (first occurrence wins, matching
    {!final_values}).  A full tree walk — the engine caches it per name
    and invalidates on structural change. *)

val outcome_to_string : outcome -> string
