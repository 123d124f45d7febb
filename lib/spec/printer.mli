(** Concrete-syntax pretty-printer.

    The output is the textual SpecCharts-like syntax accepted by
    {!Parser}: printing then parsing yields the original AST (a property
    checked by the test suite).  Every statement and every declaration is
    printed on its own line, so {!line_count} is the specification-size
    metric of the paper's Figure 10. *)

open Ast

val string_of_ty : ty -> string

val program_to_string : program -> string

val stmts_to_string : stmt list -> string

val line_count : program -> int
(** Number of non-empty lines in [program_to_string]. *)

val count_lines : string -> int
(** Number of lines of a text that are not empty once trimmed:
    [line_count p = count_lines (program_to_string p)], for a caller
    that already holds the printed text. *)
