(** Recursive-descent parser for the SpecCharts-like concrete syntax
    produced by {!Printer}. *)

open Ast

exception Parse_error of string * int
(** Message and line number. *)

(** Source lines (1-based) of every named construct, recorded as the
    program is parsed: behaviors, procedures, and variable/signal
    declarations.  The printed AST carries no positions, so this side
    table is how diagnostics recover real [file:line] locations. *)
type locations = {
  loc_behaviors : (string * int) list;
  loc_procedures : (string * int) list;
  loc_decls : (string * int) list;  (** program and behavior vars, signals *)
}

val program_of_string : string -> (program, string) result
(** Parse a whole program.  The error string includes the line number. *)

val program_of_string_located :
  string -> (program * locations, string) result
(** {!program_of_string}, also returning the source-line table. *)

val valid_program_of_string :
  string -> (program * locations, string) result
(** {!program_of_string_located}, then {!Program.validate}: how the CLI
    and the daemon load a specification.  A validation failure is one
    ["invalid specification: ..."] error joining every message. *)

val line_of_path : locations -> string list -> int option
(** Resolve a diagnostic behavior path (see {!Diagnostic.d_path}) to a
    source line: the deepest path element with a recorded location wins.
    Elements are behavior names or ["procedure f"] markers. *)

val program_of_string_exn : string -> program
(** @raise Parse_error / Lexer.Lex_error on malformed input. *)

val expr_of_string_exn : string -> expr
(** Parse a standalone expression (used by tests and the round-trip
    property). *)

val stmts_of_string_exn : string -> stmt list
(** Parse a standalone statement list. *)
