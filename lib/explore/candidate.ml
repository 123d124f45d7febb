(** Candidate points of the design space; see the interface for the
    enumeration-order contract. *)

open Partitioning

type t = {
  c_seed : int;
  c_bias : Design_search.bias;
  c_model : Core.Model.t;
  c_n_parts : int;
  c_steps : int;
}

let all_biases =
  [ Design_search.Balanced; Design_search.Mostly_local;
    Design_search.Mostly_global ]

let bias_name = function
  | Design_search.Balanced -> "balanced"
  | Design_search.Mostly_local -> "local"
  | Design_search.Mostly_global -> "global"

let bias_of_string s =
  match String.lowercase_ascii s with
  | "balanced" -> Some Design_search.Balanced
  | "local" | "mostly-local" | "mostly_local" -> Some Design_search.Mostly_local
  | "global" | "mostly-global" | "mostly_global" ->
    Some Design_search.Mostly_global
  | _ -> None

let bias_rank = function
  | Design_search.Balanced -> 0
  | Design_search.Mostly_local -> 1
  | Design_search.Mostly_global -> 2

let model_rank m =
  match m with
  | Core.Model.Model1 -> 0
  | Core.Model.Model2 -> 1
  | Core.Model.Model3 -> 2
  | Core.Model.Model4 -> 3

let enumerate ?(n_parts = 2) ?(steps = 4000) ?(biases = all_biases) ~seeds
    ~models () =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun bias ->
          List.map
            (fun model ->
              {
                c_seed = seed;
                c_bias = bias;
                c_model = model;
                c_n_parts = n_parts;
                c_steps = steps;
              })
            models)
        biases)
    seeds

let label c =
  Printf.sprintf "seed%d/%s/%s" c.c_seed (bias_name c.c_bias)
    (Core.Model.name c.c_model)

let compare a b =
  let cmp =
    [
      Stdlib.compare a.c_seed b.c_seed;
      Stdlib.compare (bias_rank a.c_bias) (bias_rank b.c_bias);
      Stdlib.compare (model_rank a.c_model) (model_rank b.c_model);
      Stdlib.compare a.c_n_parts b.c_n_parts;
      Stdlib.compare a.c_steps b.c_steps;
    ]
  in
  match List.find_opt (fun c -> c <> 0) cmp with Some c -> c | None -> 0

let equal a b = compare a b = 0
