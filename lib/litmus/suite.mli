(** The litmus matrix: shapes × orderings × seeds × optional fault
    plans, run on both kernels.  Reports are deterministic — the same
    config produces byte-identical text and JSON on every run, which is
    what lets the serve job replay a CLI invocation bit-identically. *)

open Spec

type config = {
  cf_shapes : Shape.t list;
  cf_orderings : Sim.Memord.policy list;
  cf_seeds : int;  (** seeds 1..N per weak ordering; sc runs once *)
  cf_faults : bool;  (** also run the canned per-shape fault plans *)
}

val default_config : unit -> config
(** All shapes, the three policies ([sc], [per-port-fifo],
    [relaxed]), 4 seeds, no faults. *)

type entry = {
  en_shape : string;
  en_ordering : string;
  en_seed : int;
  en_fault : string option;  (** {!Faults.Fault.describe} of the plan *)
  en_verdict : Classify.verdict;
  en_observed : (string * string) list;
  en_kernels_agree : bool;
      (** Engine and Reference produced the same verdict and vector *)
  en_diverted : int;
  en_reordered : int;
  en_deltas : int;
}

type report = {
  rp_entries : entry list;
  rp_sc_consistent : int;
  rp_weak_allowed : int;
  rp_forbidden : int;
  rp_deadlock : int;
  rp_corruption : int;
  rp_kernel_mismatches : int;
}

val run : config -> report

val race_diagnostics : report -> Diagnostic.t list
(** [RACE003] for every shape whose fault-free runs are sc-consistent
    under [sc] but weak-allowed under some weak ordering — a racy
    access whose outcome changes with port ordering. *)

val to_text : report -> string
val to_json : report -> string
