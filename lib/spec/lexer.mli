(** Hand-written lexer for the SpecCharts-like concrete syntax. *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | KW of string  (** one of the reserved keywords *)
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | SEMI | COMMA | COLON
  | ASSIGN        (** [:=] *)
  | ARROW         (** [->] *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | EQ            (** [=] *)
  | NEQ           (** [/=] *)
  | LT | LE | GT | GE
  | EOF

type located = { tok : token; lnum : int }

exception Lex_error of string * int
(** Message and line number. *)

val keywords : string list

val tokenize : string -> located list
(** Tokenize a whole source text.  Comments run from [--] to end of line.
    @raise Lex_error on an illegal character, an unterminated string or
    an integer literal past [max_int]. *)

val token_to_string : token -> string
