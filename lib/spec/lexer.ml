type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | KW of string
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | SEMI | COMMA | COLON
  | ASSIGN
  | ARROW
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | EQ
  | NEQ
  | LT | LE | GT | GE
  | EOF

type located = { tok : token; lnum : int }

exception Lex_error of string * int

let keywords =
  [
    "program"; "is"; "var"; "signal"; "servers"; "procedure"; "begin"; "end";
    "behavior"; "leaf"; "seq"; "par"; "if"; "then"; "elsif"; "else";
    "while"; "do"; "for"; "to"; "wait"; "until"; "call"; "out"; "in";
    "emit"; "skip"; "complete"; "true"; "false"; "and"; "or"; "not";
    "bool"; "int";
  ]

(* Looked up for every identifier the lexer scans, so a hash table
   rather than a list walk. *)
module Kw = Hashtbl.Make (String)

let keyword_table =
  let t = Kw.create 64 in
  List.iter (fun k -> Kw.replace t k ()) keywords;
  t

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let lnum = ref 1 in
  let emit tok = toks := { tok; lnum = !lnum } :: !toks in
  let i = ref 0 in
  (* ['\000'] past the end, which no two-character token continues with *)
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr lnum;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '-' && peek 1 = '-' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      if Kw.mem keyword_table word then emit (KW word)
      else emit (IDENT word)
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      let digits = String.sub src start (!i - start) in
      match int_of_string_opt digits with
      | Some v -> emit (INT v)
      | None ->
        raise (Lex_error ("integer literal out of range " ^ digits, !lnum))
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      incr i;
      let rec scan () =
        if !i >= n then raise (Lex_error ("unterminated string", !lnum))
        else
          match src.[!i] with
          | '"' -> incr i
          | '\\' ->
            if !i + 1 >= n then raise (Lex_error ("unterminated string", !lnum))
            else begin
              (* The escapes the printer's [%S] writes: the named ones
                 and [\DDD] (a decimal byte); any other escaped
                 character stands for itself. *)
              let decimal =
                !i + 3 < n
                && is_digit src.[!i + 1]
                && is_digit src.[!i + 2]
                && is_digit src.[!i + 3]
              in
              if decimal then begin
                let digits = String.sub src (!i + 1) 3 in
                let code = int_of_string digits in
                if code > 255 then
                  raise (Lex_error ("bad escape \\" ^ digits, !lnum));
                Buffer.add_char buf (Char.chr code);
                i := !i + 4
              end
              else begin
                if src.[!i + 1] = '\n' then incr lnum;
                Buffer.add_char buf
                  (match src.[!i + 1] with
                  | 'n' -> '\n'
                  | 't' -> '\t'
                  | 'r' -> '\r'
                  | 'b' -> '\b'
                  | other -> other);
                i := !i + 2
              end;
              scan ()
            end
          | ch ->
            if ch = '\n' then incr lnum;
            Buffer.add_char buf ch;
            incr i;
            scan ()
      in
      scan ();
      emit (STRING (Buffer.contents buf))
    end
    else begin
      let two tok = emit tok; i := !i + 2 in
      let one tok = emit tok; incr i in
      match (c, peek 1) with
      | ':', '=' -> two ASSIGN
      | '-', '>' -> two ARROW
      | '<', '=' -> two LE
      | '>', '=' -> two GE
      | '/', '=' -> two NEQ
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | '[', _ -> one LBRACKET
      | ']', _ -> one RBRACKET
      | ';', _ -> one SEMI
      | ',', _ -> one COMMA
      | ':', _ -> one COLON
      | '+', _ -> one PLUS
      | '-', _ -> one MINUS
      | '*', _ -> one STAR
      | '/', _ -> one SLASH
      | '%', _ -> one PERCENT
      | '=', _ -> one EQ
      | '<', _ -> one LT
      | '>', _ -> one GT
      | _ ->
        raise (Lex_error (Printf.sprintf "illegal character %C" c, !lnum))
    end
  done;
  emit EOF;
  List.rev !toks

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %s" s
  | INT n -> Printf.sprintf "integer %d" n
  | STRING s -> Printf.sprintf "string %S" s
  | KW k -> Printf.sprintf "keyword %s" k
  | LPAREN -> "(" | RPAREN -> ")"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | SEMI -> ";" | COMMA -> "," | COLON -> ":"
  | ASSIGN -> ":=" | ARROW -> "->"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | EQ -> "=" | NEQ -> "/=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | EOF -> "end of input"
