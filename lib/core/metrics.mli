(** Specification-size metrics (paper, Figure 10): lines of the printed
    specification, growth ratio of refined over original, and structural
    counts. *)

type t = {
  m_lines : int;
  m_behaviors : int;
  m_statements : int;
  m_signals : int;
  m_procedures : int;
  m_variables : int;  (** program-level + behavior-local declarations *)
}

val of_program : Spec.Ast.program -> t

val growth : original:Spec.Ast.program -> refined:Spec.Ast.program -> float
(** Refined-over-original line ratio — the paper reports 11-19x for the
    medical system and argues a ~10x productivity gain from automatic
    refinement. *)

val line_ratio : original:int -> refined:int -> float
(** {!growth} from line counts already taken. *)

val pp : Format.formatter -> t -> unit
