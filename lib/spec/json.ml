(** JSON codec: see the interface. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of string
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

(* Escape [s] straight into [buf]: each run of bytes that need no escape
   goes in with one [add_substring], so a long string costs a scan and a
   blit, not a call per byte. *)
let write_escaped buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c));
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run)

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let fixed digits f =
  if Float.is_finite f then Fixed (Printf.sprintf "%.*f" digits f) else Null

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null" (* nan/inf have no JSON form *)
  | Fixed s -> Buffer.add_string buf s
  | String s ->
    Buffer.add_char buf '"';
    write_escaped buf s;
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        write_escaped buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

(* The byte under the cursor, ['\000'] past the end: callers that must
   tell a NUL byte from the end test [at_end] first. *)
let peek c =
  if c.pos < String.length c.src then String.unsafe_get c.src c.pos
  else '\000'

let at_end c = c.pos >= String.length c.src

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    (not (at_end c))
    && match peek c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  if at_end c then
    raise (Bad (Printf.sprintf "expected '%c', found end of input" ch))
  else if peek c = ch then advance c
  else raise (Bad (Printf.sprintf "expected '%c', found '%c'" ch (peek c)))

let expect_word c w =
  if
    c.pos + String.length w <= String.length c.src
    && String.sub c.src c.pos (String.length w) = w
  then c.pos <- c.pos + String.length w
  else raise (Bad (Printf.sprintf "invalid token (expected %s)" w))

(* Append a Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

(* Exactly four hex digits: no sign and no [_], which [int_of_string]
   would take. *)
let hex4 c =
  if c.pos + 4 > String.length c.src then raise (Bad "truncated \\u escape");
  let s = String.sub c.src c.pos 4 in
  c.pos <- c.pos + 4;
  let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if String.for_all hex s then int_of_string ("0x" ^ s)
  else raise (Bad ("bad \\u escape: " ^ s))

(* The end of the run of plain bytes from [i]: the next ['"'] or ['\\'],
   or the end of input. *)
let run_end src i =
  let n = String.length src in
  let j = ref i in
  while
    !j < n && match String.unsafe_get src !j with '"' | '\\' -> false | _ -> true
  do
    incr j
  done;
  !j

let parse_escape c buf =
  advance c;
  if at_end c then raise (Bad "unterminated escape");
  let e = peek c in
  advance c;
  match e with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'u' ->
    let u = hex4 c in
    (* Surrogate pair: a high surrogate must be followed by
       [\uDC00-\uDFFF]; anything else is kept as-is (replacement
       would lose information the client sent). *)
    let u =
      if u >= 0xD800 && u <= 0xDBFF
         && c.pos + 6 <= String.length c.src
         && c.src.[c.pos] = '\\' && c.src.[c.pos + 1] = 'u'
      then begin
        let saved = c.pos in
        c.pos <- c.pos + 2;
        let lo = hex4 c in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
        else begin
          c.pos <- saved;
          u
        end
      end
      else u
    in
    add_utf8 buf u
  | e -> raise (Bad (Printf.sprintf "bad escape '\\%c'" e))

(* A string is copied a run at a time: one [String.sub] when it holds no
   escape, else one [add_substring] per run between escapes. *)
let parse_string c =
  expect c '"';
  let src = c.src in
  let stop = run_end src c.pos in
  if stop < String.length src && src.[stop] = '"' then begin
    let s = String.sub src c.pos (stop - c.pos) in
    c.pos <- stop + 1;
    s
  end
  else begin
    let buf = Buffer.create 64 in
    let rec loop () =
      let stop = run_end src c.pos in
      Buffer.add_substring buf src c.pos (stop - c.pos);
      c.pos <- stop;
      if at_end c then raise (Bad "unterminated string")
      else if peek c = '"' then advance c
      else begin
        parse_escape c buf;
        loop ()
      end
    in
    loop ();
    Buffer.contents buf
  end

(* RFC 8259 numbers: [-?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?],
   so no leading zeros, and a digit after every dot and exponent.  Each
   step gives the offset after its part, or -1 once a part is bad. *)
let number_ok s =
  let n = String.length s in
  let at i ch = i >= 0 && i < n && s.[i] = ch in
  let rec digits i =
    if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i
  in
  let some_digits i =
    let j = if i < 0 then i else digits i in
    if j = i then -1 else j
  in
  let i = if at 0 '-' then 1 else 0 in
  let i = if at i '0' then i + 1 else some_digits i in
  let i = if at i '.' then some_digits (i + 1) else i in
  let i =
    if at i 'e' || at i 'E' then
      some_digits (if at (i + 1) '+' || at (i + 1) '-' then i + 2 else i + 1)
    else i
  in
  i = n

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  while
    (not (at_end c))
    &&
    match peek c with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
      is_float := true;
      true
    | _ -> false
  do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  if not (number_ok s) then raise (Bad ("bad number: " ^ s))
  else if !is_float then Float (float_of_string s)
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> Float (float_of_string s)

(* Far deeper than any report or request nests, and shallow enough that
   a frame of ['['s is refused after [max_depth] bytes instead of
   recursing once per byte. *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  if at_end c then raise (Bad "empty input");
  match peek c with
  | '"' -> String (parse_string c)
  | '{' | '[' when depth >= max_depth ->
    raise
      (Bad (Printf.sprintf "nesting deeper than %d at offset %d" max_depth c.pos))
  | '{' ->
    advance c;
    skip_ws c;
    if peek c = '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | ',' ->
          advance c;
          fields_loop ()
        | '}' -> advance c
        | _ -> raise (Bad "expected ',' or '}' in object")
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | '[' ->
    advance c;
    skip_ws c;
    if peek c = ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value c (depth + 1) in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | ',' ->
          advance c;
          items_loop ()
        | ']' -> advance c
        | _ -> raise (Bad "expected ',' or ']' in array")
      in
      items_loop ();
      List (List.rev !items)
    end
  | 't' ->
    expect_word c "true";
    Bool true
  | 'f' ->
    expect_word c "false";
    Bool false
  | 'n' ->
    expect_word c "null";
    Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> raise (Bad (Printf.sprintf "unexpected character '%c'" ch))

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if not (at_end c) then
      Error
        (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_field ?default key j =
  match (member key j, default) with
  | Some (String s), _ -> Ok s
  | Some _, _ -> Error (Printf.sprintf "field %S must be a string" key)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" key)

let int_field ?default key j =
  match (member key j, default) with
  | Some (Int n), _ -> Ok n
  | Some _, _ -> Error (Printf.sprintf "field %S must be an integer" key)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" key)

let float_field key j =
  match member key j with
  | Some (Float f) -> Ok (Some f)
  | Some (Int n) -> Ok (Some (float_of_int n))
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a number" key)

let bool_field ?default key j =
  match (member key j, default) with
  | Some (Bool b), _ -> Ok b
  | Some _, _ -> Error (Printf.sprintf "field %S must be a boolean" key)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" key)

let string_list_field ?default key j =
  match (member key j, default) with
  | Some (List xs), _ ->
    let rec conv acc = function
      | [] -> Ok (List.rev acc)
      | String s :: rest -> conv (s :: acc) rest
      | Int n :: rest -> conv (string_of_int n :: acc) rest
      | Float f :: rest -> conv (float_repr f :: acc) rest
      | _ -> Error (Printf.sprintf "field %S must hold strings" key)
    in
    conv [] xs
  | Some _, _ -> Error (Printf.sprintf "field %S must be an array" key)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" key)
