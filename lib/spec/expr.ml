open Ast

let int n = Const (VInt n)
let bool b = Const (VBool b)
let tru = bool true
let fls = bool false
let ref_ x = Ref x

let binop op a b = Binop (op, a, b)
let ( + ) a b = binop Add a b
let ( - ) a b = binop Sub a b
let ( * ) a b = binop Mul a b
let ( / ) a b = binop Div a b
let ( mod ) a b = binop Mod a b
let ( = ) a b = binop Eq a b
let ( <> ) a b = binop Neq a b
let ( < ) a b = binop Lt a b
let ( <= ) a b = binop Le a b
let ( > ) a b = binop Gt a b
let ( >= ) a b = binop Ge a b
let ( && ) a b = binop And a b
let ( || ) a b = binop Or a b
let neg e = Unop (Neg, e)
let not_ e = Unop (Not, e)

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let as_bool = function
  | VBool b -> b
  | VInt _ -> eval_error "expected a boolean value"

let as_int = function
  | VInt n -> n
  | VBool _ -> eval_error "expected an integer value"

(* The two boolean blocks, interned: condition evaluation is the
   simulator's hottest loop and must not allocate its result. *)
let vtrue = VBool true
let vfalse = VBool false
let vbool b = if b then vtrue else vfalse

(* Small integers likewise: loop counters and protocol data values live
   in a narrow range, and arithmetic re-boxing them was the next biggest
   allocation after booleans.  The table is filled in a loop rather than
   built with [Array.init]: that would seed [caml_make_vect] with a young
   block, which forces collections at start-up. *)
let vint_small =
  let a = Array.make 1024 vfalse in
  for n = 0 to 1023 do
    a.(n) <- VInt n
  done;
  a

let vint n =
  if Stdlib.( && ) (Stdlib.( >= ) n 0) (Stdlib.( < ) n 1024) then
    Array.unsafe_get vint_small n
  else VInt n

let apply_binop op va vb =
  let arith f =
    vint (f (as_int va) (as_int vb))
  and cmp f =
    vbool (f (as_int va) (as_int vb))
  in
  match op with
  | Add -> arith Stdlib.( + )
  | Sub -> arith Stdlib.( - )
  | Mul -> arith Stdlib.( * )
  | Div ->
    if Stdlib.( = ) (as_int vb) 0 then eval_error "division by zero"
    else arith Stdlib.( / )
  | Mod ->
    if Stdlib.( = ) (as_int vb) 0 then eval_error "modulo by zero"
    else arith Stdlib.( mod )
  | Eq -> vbool (equal_value va vb)
  | Neq -> vbool (Stdlib.not (equal_value va vb))
  | Lt -> cmp Stdlib.( < )
  | Le -> cmp Stdlib.( <= )
  | Gt -> cmp Stdlib.( > )
  | Ge -> cmp Stdlib.( >= )
  | And -> vbool (Stdlib.( && ) (as_bool va) (as_bool vb))
  | Or -> vbool (Stdlib.( || ) (as_bool va) (as_bool vb))

let apply_unop op v =
  match op with
  | Neg -> vint (Stdlib.( - ) 0 (as_int v))
  | Not -> vbool (Stdlib.not (as_bool v))

let eval ?(lookup_idx = fun x _ -> eval_error "cannot index %s here" x)
    ~lookup =
  (* The recursion captures the lookups once instead of re-applying the
     optional argument at every node, so partially applying
     [eval ~lookup_idx ~lookup] yields a reusable evaluator. *)
  let rec go e =
    match e with
    | Const v -> v
    | Ref x ->
      begin match lookup x with
      | Some v -> v
      | None -> eval_error "unbound reference %s" x
      end
    | Index (x, i) ->
      begin match lookup_idx x (as_int (go i)) with
      | Some v -> v
      | None -> eval_error "array access %s failed" x
      end
    | Binop (And, a, b) ->
      (* Short-circuit, so protocol guards such as [started && data = k]
         never evaluate the right operand on an idle bus. *)
      if as_bool (go a) then go b else vfalse
    | Binop (Or, a, b) ->
      if as_bool (go a) then vtrue else go b
    | Binop (op, a, b) -> apply_binop op (go a) (go b)
    | Unop (op, a) -> apply_unop op (go a)
  in
  go

let eval_const e =
  match eval ~lookup:(fun _ -> None) e with
  | v -> Some v
  | exception Eval_error _ -> None

let refs e =
  (* Deduplicated on the fly: one entry per name, first occurrence first,
     however many times the name occurs in the expression. *)
  let add x acc = if List.exists (String.equal x) acc then acc else x :: acc in
  let rec go acc = function
    | Const _ -> acc
    | Ref x -> add x acc
    | Index (x, i) -> go (add x acc) i
    | Binop (_, a, b) -> go (go acc a) b
    | Unop (_, a) -> go acc a
  in
  List.rev (go [] e)

let rec exists_ref f = function
  | Const _ -> false
  | Ref x -> f x
  | Index (x, i) -> if f x then true else exists_ref f i
  | Binop (_, a, b) -> if exists_ref f a then true else exists_ref f b
  | Unop (_, a) -> exists_ref f a

let rec rename f = function
  | Const v -> Const v
  | Ref x -> Ref (f x)
  | Index (x, i) -> Index (f x, rename f i)
  | Binop (op, a, b) -> Binop (op, rename f a, rename f b)
  | Unop (op, a) -> Unop (op, rename f a)

let rec subst x r = function
  | Const v -> Const v
  | Ref y -> if String.equal x y then r else Ref y
  | Index (y, i) -> Index (y, subst x r i)
  | Binop (op, a, b) -> Binop (op, subst x r a, subst x r b)
  | Unop (op, a) -> Unop (op, subst x r a)

let rec size = function
  | Const _ | Ref _ -> 1
  | Index (_, i) -> Stdlib.( + ) 1 (size i)
  | Binop (_, a, b) -> Stdlib.( + ) (Stdlib.( + ) 1 (size a)) (size b)
  | Unop (_, a) -> Stdlib.( + ) 1 (size a)

(* Precedence levels, loosest binding first: or(1) and(2) cmp(3) add(4)
   mul(5) unary(6) atom(7). *)
let prec_of_binop = function
  | Or -> 1
  | And -> 2
  | Eq | Neq | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

let binop_symbol = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "=" | Neq -> "/=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "and" | Or -> "or"

let pp_value ppf = function
  | VBool true -> Format.pp_print_string ppf "true"
  | VBool false -> Format.pp_print_string ppf "false"
  | VInt n -> Format.pp_print_int ppf n

(* Printing appends to a [Buffer] rather than going through [Format]:
   the spec printer emits one expression per statement, and a formatter
   per expression cost more than the text it produced. *)
let add_value buf = function
  | VBool true -> Buffer.add_string buf "true"
  | VBool false -> Buffer.add_string buf "false"
  | VInt n -> Buffer.add_string buf (string_of_int n)

let add_expr buf e =
  let rec go ctx e =
    match e with
    | Const v -> add_value buf v
    | Ref x -> Buffer.add_string buf x
    | Index (x, i) ->
      Buffer.add_string buf x;
      Buffer.add_char buf '[';
      go 0 i;
      Buffer.add_char buf ']'
    | Unop (op, a) ->
      (* The operand prints at level 7 so a nested unary parenthesizes:
         [neg (neg x)] must not print as [--x], which would lex as a
         comment. *)
      let paren = Stdlib.( > ) ctx 6 in
      if paren then Buffer.add_char buf '(';
      Buffer.add_string buf (match op with Neg -> "-" | Not -> "not ");
      go 7 a;
      if paren then Buffer.add_char buf ')'
    | Binop (op, a, b) ->
      let p = prec_of_binop op in
      (* Arithmetic and logical operators are left associative (left child
         at [p], right at [p+1]); comparisons are non-associative, so both
         children parenthesize nested comparisons. *)
      let lctx =
        match op with
        | Eq | Neq | Lt | Le | Gt | Ge -> Stdlib.( + ) p 1
        | Add | Sub | Mul | Div | Mod | And | Or -> p
      in
      let paren = Stdlib.( > ) ctx p in
      if paren then Buffer.add_char buf '(';
      go lctx a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_symbol op);
      Buffer.add_char buf ' ';
      go (Stdlib.( + ) p 1) b;
      if paren then Buffer.add_char buf ')'
  in
  go 0 e

let to_string e =
  let buf = Buffer.create 32 in
  add_expr buf e;
  Buffer.contents buf

let pp ppf e = Format.pp_print_string ppf (to_string e)
