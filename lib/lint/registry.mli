(** The pass registry and lint drivers. *)

open Spec

type phase = Pass.phase = Pre | Post

val find_pass : string -> Pass.pass option
(** Finds default and contextual passes alike. *)

val code_table : (string * string) list
(** Every diagnostic code the tool can emit, with a one-line
    description, sorted by code — the passes' own codes plus those of
    the migrated type checker and refinement checks. *)

val infer_phase : Ast.program -> phase

(** Per-code severity policy: remap a diagnostic code's severity or
    silence it entirely. *)
type override = Severity of Diagnostic.severity | Off

val parse_override : string -> (string * override, string) result
(** Parse a ["CODE=error|warning|info|off"] override.  The code must be
    in {!code_table}; the level is case-insensitive. *)

val run :
  ?phase:phase ->
  ?typecheck:bool ->
  ?passes:Pass.pass list ->
  ?overrides:(string * override) list ->
  ?flow:bool ->
  Ast.program ->
  Diagnostic.t list
(** Lint one program.  The phase defaults to {!infer_phase}; the type
    checker's diagnostics are folded in unless [~typecheck:false];
    [overrides] applies the per-code severity policy; [~flow:true]
    builds a {!Flow.summary} and switches the liveness, race and width
    passes to their flow-sensitive modes (default off — structural
    output is byte-stable); the result is in stable
    {!Spec.Diagnostic.compare} order. *)

val run_refinement :
  original:Ast.program -> Core.Refiner.t -> Diagnostic.t list
(** Lint a refinement result: {!Core.Check.diagnostics}, which brings
    the type findings, plus the passes of {!run} on the refined program
    at phase [Post].  The refined program's validation and type verdict
    are the ones the record carries ({!Core.Refiner.verdict}): after
    {!Core.Check.run} on the same record, this neither validates nor
    typechecks again. *)
