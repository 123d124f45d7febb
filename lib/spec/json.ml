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

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

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
    Buffer.add_string buf (escape s);
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
        Buffer.add_string buf (escape k);
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

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Bad (Printf.sprintf "expected '%c', found '%c'" ch x))
  | None -> raise (Bad (Printf.sprintf "expected '%c', found end of input" ch))

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

let hex4 c =
  if c.pos + 4 > String.length c.src then raise (Bad "truncated \\u escape");
  let s = String.sub c.src c.pos 4 in
  c.pos <- c.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some n -> n
  | None -> raise (Bad ("bad \\u escape: " ^ s))

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> raise (Bad "unterminated escape")
      | Some e ->
        advance c;
        (match e with
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
        | e -> raise (Bad (Printf.sprintf "bad escape '\\%c'" e)));
        loop ())
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ('0' .. '9' | '-' | '+') -> advance c
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance c
    | _ -> continue := false
  done;
  let s = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> raise (Bad ("bad number: " ^ s))
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> raise (Bad ("bad number: " ^ s)))

(* Far deeper than any report or request nests, and shallow enough that
   a frame of ['['s is refused after [max_depth] bytes instead of
   recursing once per byte. *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> raise (Bad "empty input")
  | Some '"' -> String (parse_string c)
  | Some ('{' | '[') when depth >= max_depth ->
    raise
      (Bad (Printf.sprintf "nesting deeper than %d at offset %d" max_depth c.pos))
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
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
        | Some ',' ->
          advance c;
          fields_loop ()
        | Some '}' -> advance c
        | _ -> raise (Bad "expected ',' or '}' in object")
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
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
        | Some ',' ->
          advance c;
          items_loop ()
        | Some ']' -> advance c
        | _ -> raise (Bad "expected ',' or ']' in array")
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some 't' ->
    expect_word c "true";
    Bool true
  | Some 'f' ->
    expect_word c "false";
    Bool false
  | Some 'n' ->
    expect_word c "null";
    Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> raise (Bad (Printf.sprintf "unexpected character '%c'" ch))

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos <> String.length src then
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

let float_field ?default key j =
  match member key j with
  | Some (Float f) -> Ok (Some f)
  | Some (Int n) -> Ok (Some (float_of_int n))
  | Some Null -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a number" key)
  | None -> Ok (match default with Some d -> Some d | None -> None)

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
