(* Order statistics shared by the harness and the probe. *)

(* Linear-interpolated quantile of an unsorted list (0 for an empty one). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
