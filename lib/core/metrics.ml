(** Specification-size metrics (paper, Figure 10): lines of the printed
    specification, growth ratio of refined over original, and structural
    counts. *)

open Spec

type t = {
  m_lines : int;
  m_behaviors : int;
  m_statements : int;
  m_signals : int;
  m_procedures : int;
  m_variables : int;  (** program-level + behavior-local declarations *)
}

let of_program (p : Ast.program) =
  let local_vars =
    Behavior.fold
      (fun acc b -> acc + List.length b.Ast.b_vars)
      0 p.Ast.p_top
  in
  {
    m_lines = Printer.line_count p;
    m_behaviors = Behavior.behavior_count p.Ast.p_top;
    m_statements = Behavior.stmt_count p.Ast.p_top;
    m_signals = List.length p.Ast.p_signals;
    m_procedures = List.length p.Ast.p_procs;
    m_variables = List.length p.Ast.p_vars + local_vars;
  }

let line_ratio ~original ~refined =
  float_of_int refined /. float_of_int (max 1 original)

(** Refined-over-original size ratio — the paper reports 11–19x for the
    medical system and uses it to argue a 10x productivity gain. *)
let growth ~original ~refined =
  line_ratio ~original:(Printer.line_count original)
    ~refined:(Printer.line_count refined)

let pp ppf m =
  Format.fprintf ppf
    "%d lines, %d behaviors, %d statements, %d signals, %d procedures, %d variables"
    m.m_lines m.m_behaviors m.m_statements m.m_signals m.m_procedures
    m.m_variables
