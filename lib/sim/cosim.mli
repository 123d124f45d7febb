(** Co-simulation: run an original specification and its refinement and
    decide functional equivalence — the correctness requirement of the
    refinement task (paper, Section 4). *)

type verdict = {
  v_equivalent : bool;
  v_original : Engine.result;
  v_refined : Engine.result;
  v_problems : string list;  (** human-readable divergences, if any *)
}

type trace_mode =
  | Total  (** traces must match event for event *)
  | Per_tag
      (** each tag's value sequence must match; use for specifications
          with parallel branches, whose cross-branch interleaving is
          scheduling-dependent and not preserved by refinement *)

val check :
  ?trace_mode:trace_mode ->
  ?ignore_prefixes:string list ->
  original:Spec.Ast.program ->
  refined:Spec.Ast.program ->
  unit ->
  verdict
(** Run both programs and compare: both must complete, the observable
    traces must agree (under [trace_mode], default [Total]), and the final
    value of every original program variable must survive in the refined
    design (booleans are decoded from their int<1> bus encoding).
    [ignore_prefixes] drops emit tags with the given prefixes from both
    traces before comparing — hardened refinements emit reserved
    watchdog/recovery markers ([WDG_*], [FLT_*]) with no counterpart in
    the original. *)

val pp_verdict : Format.formatter -> verdict -> unit
