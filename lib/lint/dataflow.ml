(** Generic worklist fixpoint solving over {!Cfg} graphs, plus the two
    concrete lattices the flow-sensitive passes build on; see the
    interface. *)

open Spec
open Ast

(* ------------------------------------------------------------------ *)
(* The solver.                                                         *)

module type DOMAIN = sig
  type t

  val direction : [ `Forward | `Backward ]
  val bottom : t
  val is_bottom : t -> bool
  val boundary : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  val transfer : Cfg.node -> t -> t
  val edge : Cfg.node -> Cfg.edge -> t -> t option
end

(* A state's join count before [widen] replaces [join] at that node; the
   interval lattice has unbounded ascending chains (loop counters), and
   this is what guarantees termination on loop-heavy specs. *)
let widen_after = 16

module Solve (D : DOMAIN) = struct
  type result = { r_in : D.t array; r_out : D.t array; r_iterations : int }

  let run (g : Cfg.t) =
    let n = Cfg.size g in
    let r_in = Array.make n D.bottom and r_out = Array.make n D.bottom in
    let visits = Array.make n 0 in
    let queue = Queue.create () in
    let on_queue = Array.make n false in
    let push i =
      if not on_queue.(i) then begin
        on_queue.(i) <- true;
        Queue.push i queue
      end
    in
    (* Incoming labeled edges per node, for the pull-style join. *)
    let incoming = Array.make n [] in
    Array.iter
      (fun (node : Cfg.node) ->
        List.iter
          (fun (e, j) -> incoming.(j) <- (node.Cfg.n_id, e) :: incoming.(j))
          node.Cfg.n_succ)
      g.Cfg.c_nodes;
    let iterations = ref 0 in
    let merge_into cur contrib i =
      let merged =
        if visits.(i) >= widen_after then D.widen cur contrib
        else D.join cur contrib
      in
      merged
    in
    (match D.direction with
    | `Forward -> Array.iteri (fun i _ -> push i) r_in
    | `Backward ->
      for i = n - 1 downto 0 do
        push i
      done);
    while not (Queue.is_empty queue) do
      incr iterations;
      let i = Queue.pop queue in
      on_queue.(i) <- false;
      let node = Cfg.node g i in
      match D.direction with
      | `Forward ->
        let joined =
          List.fold_left
            (fun acc (p, e) ->
              let pn = Cfg.node g p in
              if D.is_bottom r_out.(p) then acc
              else
                match D.edge pn e r_out.(p) with
                | None -> acc
                | Some v -> D.join acc v)
            (if i = g.Cfg.c_entry then D.boundary else D.bottom)
            incoming.(i)
        in
        let in_ = merge_into r_in.(i) joined i in
        if not (D.equal in_ r_in.(i)) then begin
          r_in.(i) <- in_;
          visits.(i) <- visits.(i) + 1
        end;
        let out =
          if D.is_bottom r_in.(i) then D.bottom else D.transfer node r_in.(i)
        in
        if not (D.equal out r_out.(i)) then begin
          r_out.(i) <- out;
          List.iter (fun (_, j) -> push j) node.Cfg.n_succ
        end
      | `Backward ->
        let joined =
          List.fold_left
            (fun acc (e, j) ->
              if D.is_bottom r_in.(j) then acc
              else
                match D.edge node e r_in.(j) with
                | None -> acc
                | Some v -> D.join acc v)
            (if i = g.Cfg.c_exit then D.boundary else D.bottom)
            node.Cfg.n_succ
        in
        let out = merge_into r_out.(i) joined i in
        if not (D.equal out r_out.(i)) then begin
          r_out.(i) <- out;
          visits.(i) <- visits.(i) + 1
        end;
        let in_ =
          if D.is_bottom r_out.(i) then D.bottom else D.transfer node r_out.(i)
        in
        if not (D.equal in_ r_in.(i)) then begin
          r_in.(i) <- in_;
          List.iter push node.Cfg.n_pred
        end
    done;
    { r_in; r_out; r_iterations = !iterations }
end

(* ------------------------------------------------------------------ *)
(* Intervals.                                                          *)

module Interval = struct
  (* [min_int]/[max_int] are the two infinities; arithmetic saturates
     well before them so no overflow can wrap a bound. *)
  type itv = { lo : int; hi : int }

  let top = { lo = min_int; hi = max_int }
  let is_top v = v.lo = min_int && v.hi = max_int
  let const n = { lo = n; hi = n }
  let of_value = function VInt n -> const n | VBool b -> const (if b then 1 else 0)
  let itv_true = const 1
  let itv_false = const 0
  let itv_bool = { lo = 0; hi = 1 }

  (* Saturation bound: far above any spec-level value, far below
     [max_int]/2 so sums of two saturated bounds cannot overflow. *)
  let sat_bound = 1 lsl 40

  let sat n =
    if n >= sat_bound then max_int else if n <= -sat_bound then min_int else n

  let add_bound a b =
    if a = min_int || b = min_int then min_int
    else if a = max_int || b = max_int then max_int
    else sat (a + b)

  let neg_bound a =
    if a = min_int then max_int else if a = max_int then min_int else -a

  let join_itv a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

  let widen_itv a b =
    {
      lo = (if b.lo < a.lo then min_int else a.lo);
      hi = (if b.hi > a.hi then max_int else a.hi);
    }

  let meet_itv a b =
    let lo = max a.lo b.lo and hi = min a.hi b.hi in
    if lo > hi then None else Some { lo; hi }

  let add a b = { lo = add_bound a.lo b.lo; hi = add_bound a.hi b.hi }
  let neg a = { lo = neg_bound a.hi; hi = neg_bound a.lo }
  let sub a b = add a (neg b)

  let mul a b =
    if is_top a || is_top b then top
    else begin
      let mul_bound x y =
        if x = min_int || x = max_int || y = min_int || y = max_int then
          if (x > 0 && y > 0) || (x < 0 && y < 0) then max_int else min_int
        else sat (x * y)
      in
      let c1 = mul_bound a.lo b.lo
      and c2 = mul_bound a.lo b.hi
      and c3 = mul_bound a.hi b.lo
      and c4 = mul_bound a.hi b.hi in
      {
        lo = min (min c1 c2) (min c3 c4);
        hi = max (max c1 c2) (max c3 c4);
      }
    end

  let div a b =
    (* Conservative: only the easy all-positive case is sharpened. *)
    if a.lo >= 0 && b.lo >= 1 && b.hi < max_int && a.hi < max_int then
      { lo = a.lo / b.hi; hi = a.hi / b.lo }
    else top

  let modulo b =
    (* [x mod k] for positive k ranges over [-(k-1), k-1] (OCaml keeps
       the dividend's sign); nonnegative dividends land in [0, k-1]. *)
    if b.lo >= 1 && b.hi < max_int then
      { lo = -(b.hi - 1); hi = b.hi - 1 }
    else top

  let cmp_itv op a b =
    let known t f =
      if t then itv_true else if f then itv_false else itv_bool
    in
    match op with
    | Lt -> known (a.hi < b.lo) (a.lo >= b.hi)
    | Le -> known (a.hi <= b.lo) (a.lo > b.hi)
    | Gt -> known (a.lo > b.hi) (a.hi <= b.lo)
    | Ge -> known (a.lo >= b.hi) (a.hi < b.lo)
    | Eq ->
      known
        (a.lo = a.hi && b.lo = b.hi && a.lo = b.lo)
        (a.hi < b.lo || b.hi < a.lo)
    | Neq ->
      known
        (a.hi < b.lo || b.hi < a.lo)
        (a.lo = a.hi && b.lo = b.hi && a.lo = b.lo)
    | Add | Sub | Mul | Div | Mod | And | Or -> itv_bool

  let definitely_true v = v.lo >= 1
  let definitely_false v = v.hi <= 0

  module M = Map.Make (String)

  (* Environments bind only non-top names, so structural equality works
     as lattice equality. *)
  type env = itv M.t

  let env_empty : env = M.empty
  let env_find x (env : env) = try M.find x env with Not_found -> top

  let env_set x v (env : env) : env =
    if is_top v then M.remove x env else M.add x v env

  let env_join (a : env) (b : env) : env =
    M.merge
      (fun _ va vb ->
        match (va, vb) with
        | Some va, Some vb ->
          let j = join_itv va vb in
          if is_top j then None else Some j
        | _ -> None)
      a b

  let env_widen (a : env) (b : env) : env =
    M.merge
      (fun _ va vb ->
        match (va, vb) with
        | Some va, Some vb ->
          let w = widen_itv va vb in
          if is_top w then None else Some w
        | _ -> None)
      a b

  let env_equal (a : env) (b : env) =
    M.equal (fun x y -> x.lo = y.lo && x.hi = y.hi) a b

  let rec eval (env : env) e =
    match e with
    | Const v -> of_value v
    | Ref x -> env_find x env
    | Index _ -> top
    | Unop (Neg, a) -> neg (eval env a)
    | Unop (Not, a) ->
      let v = eval env a in
      if definitely_true v then itv_false
      else if definitely_false v then itv_true
      else itv_bool
    | Binop (op, a, b) -> (
      match op with
      | Add -> add (eval env a) (eval env b)
      | Sub -> sub (eval env a) (eval env b)
      | Mul -> mul (eval env a) (eval env b)
      | Div -> div (eval env a) (eval env b)
      | Mod -> modulo (eval env b)
      | And ->
        let va = eval env a and vb = eval env b in
        if definitely_false va || definitely_false vb then itv_false
        else if definitely_true va && definitely_true vb then itv_true
        else itv_bool
      | Or ->
        let va = eval env a and vb = eval env b in
        if definitely_true va || definitely_true vb then itv_true
        else if definitely_false va && definitely_false vb then itv_false
        else itv_bool
      | Eq | Neq | Lt | Le | Gt | Ge -> cmp_itv op (eval env a) (eval env b))

  (** Refine [env] under the assumption that [cond] evaluated to
      [outcome]; only simple shapes sharpen ([x], [not x], [x OP k],
      [k OP x], conjunctions on the true side, disjunctions on the
      false side).  Returns [None] when the assumption is infeasible. *)
  let rec assume (env : env) cond outcome =
    let bind x v =
      match meet_itv (env_find x env) v with
      | None -> None
      | Some m -> Some (env_set x m env)
    in
    let range_of op k outcome =
      (* the values of x for which [x op k] has the given outcome *)
      match (op, outcome) with
      | Lt, true | Ge, false -> `Range { lo = min_int; hi = k - 1 }
      | Le, true | Gt, false -> `Range { lo = min_int; hi = k }
      | Gt, true | Le, false -> `Range { lo = k + 1; hi = max_int }
      | Ge, true | Lt, false -> `Range { lo = k; hi = max_int }
      | Eq, true | Neq, false -> `Range (const k)
      | Eq, false | Neq, true -> `Exclude k
      | _ -> `Unknown
    in
    (* [x <> k] is non-convex, so a disequality usually cannot narrow an
       interval — except at the endpoints: excluding [k] from [[k,k]] is
       infeasible, and excluding it from [[k,hi]] or [[lo,k]] shaves the
       endpoint. *)
    let exclude x k =
      let cur = env_find x env in
      if cur.lo = k && cur.hi = k then None
      else if cur.lo = k then Some (env_set x { cur with lo = k + 1 } env)
      else if cur.hi = k then Some (env_set x { cur with hi = k - 1 } env)
      else Some env
    in
    let refine x = function
      | `Range r -> bind x r
      | `Exclude k -> exclude x k
      | `Unknown -> Some env
    in
    match cond with
    | Ref x -> bind x (if outcome then itv_true else itv_false)
    | Unop (Not, c) -> assume env c (not outcome)
    | Binop (op, Ref x, Const v) ->
      let k = match v with VInt n -> n | VBool b -> if b then 1 else 0 in
      refine x (range_of op k outcome)
    | Binop (op, Const v, Ref x) ->
      let flip = function
        | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op
      in
      let k = match v with VInt n -> n | VBool b -> if b then 1 else 0 in
      refine x (range_of (flip op) k outcome)
    | Binop (And, a, b) when outcome ->
      Option.bind (assume env a true) (fun env -> assume env b true)
    | Binop (Or, a, b) when not outcome ->
      Option.bind (assume env a false) (fun env -> assume env b false)
    | _ -> Some env

  (** Bits a value in the interval needs under the width pass's rule
      ([Width.bits_for] of the largest magnitude); [None] when either
      bound is unbounded. *)
  let bits_needed v =
    if v.lo = min_int || v.hi = max_int then None
    else begin
      let bits_for n =
        let n = abs n in
        let rec go acc v = if v = 0 then max acc 1 else go (acc + 1) (v lsr 1) in
        go 0 n
      in
      Some (max (bits_for v.lo) (bits_for v.hi))
    end

  let itv_to_string v =
    let b n =
      if n = min_int then "-inf" else if n = max_int then "+inf"
      else string_of_int n
    in
    Printf.sprintf "[%s,%s]" (b v.lo) (b v.hi)
end

(* ------------------------------------------------------------------ *)
(* Name sets (liveness / reaching flags).                              *)

module Names = struct
  module S = Set.Make (String)

  type t = S.t

  let empty = S.empty
  let union = S.union
  let equal = S.equal
  let mem = S.mem
  let of_list = S.of_list
  let add = S.add
  let diff = S.diff
end
