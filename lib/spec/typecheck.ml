(** Static type checking of specifications.

    The language has two type families: booleans and sized integers.
    Widths are implementation hints for bus sizing, so any integer width
    is compatible with any other; booleans and integers never mix.  The
    checker validates expressions, statements, TOC conditions and
    procedure calls under proper scoping, and returns every violation
    found as a {!Diagnostic.t} (codes [TYPE001]–[TYPE005]).  Refined
    outputs of {!Core.Refiner} are expected to typecheck — the test
    suite asserts it. *)

open Ast

type ty_class = Cbool | Cint | Carray

let class_of_ty = function
  | TBool -> Cbool
  | TInt _ -> Cint
  | TArray _ -> Carray

let class_name = function Cbool -> "bool" | Cint -> "int" | Carray -> "array"

let class_of_value = function VBool _ -> Cbool | VInt _ -> Cint

(* Scoped environment: name -> (type class, kind).  Shadowing = closest
   binding wins, and within one declaration list the first entry wins.
   Signals and variables live in one namespace for reading; assignment
   statements check the kind of the innermost binding. *)
type kind = Kvar | Ksignal

type env = {
  bindings : (ty_class * kind) Names.Map.t;
  procs : proc_decl Names.Map.t;  (** first declaration of each name *)
  path : string list;  (** behavior path, for diagnostic locations *)
}

let lookup env x = Option.map fst (Names.Map.find_opt x env.bindings)
let lookup_kind env x = Option.map snd (Names.Map.find_opt x env.bindings)

let var_bindings vars =
  List.map (fun v -> (v.v_name, (class_of_ty v.v_ty, Kvar))) vars

let bind_vars env vars =
  { env with bindings = Names.bind (var_bindings vars) env.bindings }

type error = string

(* Diagnostic codes: TYPE001 unbound name, TYPE002 class mismatch,
   TYPE003 array misuse, TYPE004 variable/signal kind confusion,
   TYPE005 malformed procedure call. *)
let errf env ~code ?loc fmt =
  Printf.ksprintf
    (fun s ->
      Diagnostic.make ~code ~severity:Diagnostic.Error ~pass:"typecheck"
        ~path:(List.rev env.path) ?loc s)
    fmt

(* Infer the class of an expression, accumulating errors; [None] when the
   expression is too broken to classify. *)
let rec infer env errs e =
  match e with
  | Const v -> (Some (class_of_value v), errs)
  | Ref x ->
    begin match lookup env x with
    | Some Carray ->
      (None, errf env ~code:"TYPE003" ~loc:x "array %s used without an index" x :: errs)
    | Some c -> (Some c, errs)
    | None -> (None, errf env ~code:"TYPE001" ~loc:x "unbound reference %s" x :: errs)
    end
  | Index (x, i) ->
    let errs = expect env errs Cint i "array index" in
    begin match lookup env x with
    | Some Carray -> (Some Cint, errs)
    | Some c ->
      (None,
       errf env ~code:"TYPE003" ~loc:x "%s indexed but has type %s" x
         (class_name c)
       :: errs)
    | None -> (None, errf env ~code:"TYPE001" ~loc:x "unbound reference %s" x :: errs)
    end
  | Unop (Neg, a) ->
    let errs = expect env errs Cint a "operand of unary minus" in
    (Some Cint, errs)
  | Unop (Not, a) ->
    let errs = expect env errs Cbool a "operand of not" in
    (Some Cbool, errs)
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) ->
    let errs = expect env errs Cint a "arithmetic operand" in
    let errs = expect env errs Cint b "arithmetic operand" in
    (Some Cint, errs)
  | Binop ((Lt | Le | Gt | Ge), a, b) ->
    let errs = expect env errs Cint a "comparison operand" in
    let errs = expect env errs Cint b "comparison operand" in
    (Some Cbool, errs)
  | Binop ((Eq | Neq), a, b) ->
    let ca, errs = infer env errs a in
    let cb, errs = infer env errs b in
    let errs =
      match (ca, cb) with
      | Some ca, Some cb when ca <> cb ->
        errf env ~code:"TYPE002" ~loc:(Expr.to_string e)
          "equality between %s and %s in %s" (class_name ca) (class_name cb)
          (Expr.to_string e)
        :: errs
      | _ -> errs
    in
    (Some Cbool, errs)
  | Binop ((And | Or), a, b) ->
    let errs = expect env errs Cbool a "logical operand" in
    let errs = expect env errs Cbool b "logical operand" in
    (Some Cbool, errs)

and expect env errs want e what =
  match infer env errs e with
  | Some got, errs when got <> want ->
    class_mismatch env e ~what ~got ~want :: errs
  | _, errs -> errs

and class_mismatch env e ~what ~got ~want =
  errf env ~code:"TYPE002" ~loc:(Expr.to_string e)
    "%s %s has type %s, expected %s" what (Expr.to_string e)
    (class_name got) (class_name want)

let check_assignable env errs ~what x e =
  match lookup env x with
  | None -> errf env ~code:"TYPE001" ~loc:x "%s to unbound name %s" what x :: errs
  | Some want ->
    let got, errs = infer env errs e in
    begin match got with
    | Some got when got <> want ->
      errf env ~code:"TYPE002" ~loc:x "%s: %s is %s but the value is %s" what x
        (class_name want) (class_name got)
      :: errs
    | Some _ | None -> errs
    end

let rec check_stmts env errs stmts = List.fold_left (check_stmt env) errs stmts

and check_stmt env errs = function
  | Skip -> errs
  | Assign (x, e) ->
    let binding = Names.Map.find_opt x env.bindings in
    let errs =
      match binding with
      | Some (_, Ksignal) ->
        errf env ~code:"TYPE004" ~loc:x
          "variable assignment to signal %s (use <=)" x
        :: errs
      | Some (_, Kvar) | None -> errs
    in
    begin match binding with
    | Some (Carray, _) ->
      errf env ~code:"TYPE003" ~loc:x "array %s assigned without an index" x
      :: errs
    | Some _ | None -> check_assignable env errs ~what:"assignment" x e
    end
  | Assign_idx (x, i, e) ->
    let errs =
      match lookup env x with
      | Some Carray -> errs
      | Some c ->
        errf env ~code:"TYPE003" ~loc:x "%s indexed but has type %s" x
          (class_name c)
        :: errs
      | None ->
        errf env ~code:"TYPE001" ~loc:x "assignment to unbound name %s" x :: errs
    in
    let errs = expect env errs Cint i "array index" in
    expect env errs Cint e "array element value"
  | Signal_assign (s, e) ->
    let errs =
      match lookup_kind env s with
      | Some Ksignal -> errs
      | Some Kvar ->
        errf env ~code:"TYPE004" ~loc:s
          "signal assignment to variable %s (use :=)" s
        :: errs
      | None -> errs  (* unbound: reported by check_assignable *)
    in
    check_assignable env errs ~what:"signal assignment" s e
  | If (branches, els) ->
    let errs =
      List.fold_left
        (fun errs (c, body) ->
          let errs = expect env errs Cbool c "if condition" in
          check_stmts env errs body)
        errs branches
    in
    check_stmts env errs els
  | While (c, body) ->
    let errs = expect env errs Cbool c "while condition" in
    check_stmts env errs body
  | For (i, lo, hi, body) ->
    let errs =
      match lookup env i with
      | Some Cint -> errs
      | Some (Cbool | Carray) ->
        errf env ~code:"TYPE002" ~loc:i "for index %s is not an integer" i
        :: errs
      | None -> errf env ~code:"TYPE001" ~loc:i "for index %s is unbound" i :: errs
    in
    let errs = expect env errs Cint lo "for lower bound" in
    let errs = expect env errs Cint hi "for upper bound" in
    check_stmts env errs body
  | Wait_until c -> expect env errs Cbool c "wait condition"
  | Call (name, args) ->
    begin match Names.Map.find_opt name env.procs with
    | None ->
      errf env ~code:"TYPE005" ~loc:name "call to unknown procedure %s" name
      :: errs
    | Some pr ->
      if List.length pr.prc_params <> List.length args then
        errf env ~code:"TYPE005" ~loc:name
          "call to %s with %d arguments, expected %d" name (List.length args)
          (List.length pr.prc_params)
        :: errs
      else
        List.fold_left2
          (fun errs prm arg ->
            let want = class_of_ty prm.prm_ty in
            match (prm.prm_mode, arg) with
            | Mode_in, Arg_expr e ->
              begin match infer env errs e with
              | Some got, errs when got <> want ->
                class_mismatch env e ~got ~want
                  ~what:(Printf.sprintf "argument %s of %s" prm.prm_name name)
                :: errs
              | _, errs -> errs
              end
            | Mode_in, Arg_var x | Mode_out, Arg_var x ->
              begin match lookup env x with
              | Some got when got <> want ->
                errf env ~code:"TYPE002" ~loc:x
                  "argument %s of %s: %s is %s, expected %s" prm.prm_name name
                  x (class_name got) (class_name want)
                :: errs
              | Some _ -> errs
              | None ->
                errf env ~code:"TYPE001" ~loc:x "argument %s of %s is unbound"
                  x name
                :: errs
              end
            | Mode_out, Arg_expr _ ->
              errf env ~code:"TYPE005" ~loc:name
                "expression bound to out parameter %s of %s" prm.prm_name name
              :: errs)
          errs pr.prc_params args
    end
  | Emit (_, e) ->
    let _, errs = infer env errs e in
    errs

let rec check_behavior env errs b =
  let env = bind_vars { env with path = b.b_name :: env.path } b.b_vars in
  match b.b_body with
  | Leaf stmts -> check_stmts env errs stmts
  | Par children -> List.fold_left (check_behavior env) errs children
  | Seq arms ->
    List.fold_left
      (fun errs a ->
        let errs =
          List.fold_left
            (fun errs t ->
              match t.t_cond with
              | Some c -> expect env errs Cbool c "transition condition"
              | None -> errs)
            errs a.a_transitions
        in
        check_behavior env errs a.a_behavior)
      errs arms

let check_proc env errs pr =
  let env = { env with path = [ "procedure " ^ pr.prc_name ] } in
  let env =
    {
      env with
      bindings =
        Names.bind
          (List.map
             (fun prm -> (prm.prm_name, (class_of_ty prm.prm_ty, Kvar)))
             pr.prc_params)
          env.bindings;
    }
  in
  let env = bind_vars env pr.prc_vars in
  List.fold_left (check_stmt env) errs pr.prc_body
  |> List.map (fun (d : Diagnostic.t) ->
         {
           d with
           Diagnostic.d_message =
             Printf.sprintf "procedure %s: %s" pr.prc_name
               d.Diagnostic.d_message;
         })

let check_decl_sites env (p : program) errs =
  (* Arrays are storage only: never signals, never parameters. *)
  let errs =
    List.fold_left
      (fun errs (sd : sig_decl) ->
        match sd.s_ty with
        | TArray _ ->
          errf env ~code:"TYPE003" ~loc:sd.s_name
            "signal %s has an array type" sd.s_name
          :: errs
        | TBool | TInt _ -> errs)
      errs p.p_signals
  in
  List.fold_left
    (fun errs pr ->
      List.fold_left
        (fun errs prm ->
          match prm.prm_ty with
          | TArray _ ->
            errf env ~code:"TYPE003" ~loc:prm.prm_name
              "parameter %s of %s has an array type" prm.prm_name pr.prc_name
            :: errs
          | TBool | TInt _ -> errs)
        errs pr.prc_params)
    errs p.p_procs

(** Typecheck a whole program; returns all violations as sorted
    diagnostics (empty = well typed).  Run {!Program.validate} first for
    name-resolution errors — this checker reports unbound names too, but
    with less context. *)
let diagnostics (p : program) : Diagnostic.t list =
  let base =
    {
      bindings =
        Names.bind (var_bindings p.p_vars)
          (Names.bind
             (List.map
                (fun s -> (s.s_name, (class_of_ty s.s_ty, Ksignal)))
                p.p_signals)
             Names.Map.empty);
      procs =
        Names.bind
          (List.map (fun pr -> (pr.prc_name, pr)) p.p_procs)
          Names.Map.empty;
      path = [];
    }
  in
  let errs = check_decl_sites base p [] in
  let errs =
    errs @ List.concat_map (fun pr -> check_proc base [] pr) p.p_procs
  in
  let errs = check_behavior base errs p.p_top in
  Diagnostic.sort errs

let check (p : program) : (unit, error list) result =
  match diagnostics p with
  | [] -> Ok ()
  | ds -> Error (List.map (fun d -> d.Diagnostic.d_message) ds)
