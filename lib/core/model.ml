(** The four implementation models of the paper (Section 3).  They differ
    in three parameters: the number of memory ports, the mapping of
    variables to memories, and the communication scheme. *)

type t =
  | Model1  (** single-port global memory only; one shared bus *)
  | Model2  (** local memories + single-port global memory *)
  | Model3  (** local memories + multi-port global memories *)
  | Model4  (** local memories only + bus interfaces (message passing) *)

let all = [ Model1; Model2; Model3; Model4 ]

let name = function
  | Model1 -> "Model1"
  | Model2 -> "Model2"
  | Model3 -> "Model3"
  | Model4 -> "Model4"

let description = function
  | Model1 -> "single-port global memory only"
  | Model2 -> "local memory + single-port global memory"
  | Model3 -> "local memory + multiple-port global memory"
  | Model4 -> "local memory + bus interface"

let of_string s =
  match String.lowercase_ascii s with
  | "model1" | "1" -> Some Model1
  | "model2" | "2" -> Some Model2
  | "model3" | "3" -> Some Model3
  | "model4" | "4" -> Some Model4
  | _ -> None

(** Maximum number of buses after refinement, as a function of the number
    of partitions [p] (paper, Section 3). *)
let max_buses t ~p =
  match t with
  | Model1 -> 1
  | Model2 -> p + 1
  | Model3 -> p + (p * p)
  | Model4 -> (2 * p) + 1

(** Maximum number of ports of a global memory. *)
let global_memory_ports t ~p =
  match t with Model1 | Model2 -> 1 | Model3 -> p | Model4 -> 0
