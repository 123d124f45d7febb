(** Outcome classification against a shape's enumerated allowed sets. *)

open Spec

type verdict =
  | Sc_consistent  (** the delta-cycle sc baseline could produce it *)
  | Weak_allowed  (** only a weak port ordering can produce it *)
  | Forbidden  (** in-domain but in neither allowed set *)
  | Deadlock  (** the run did not complete (deadlock or budget) *)
  | Corruption  (** an observed value left the shape's domain *)

let to_string = function
  | Sc_consistent -> "sc-consistent"
  | Weak_allowed -> "weak-allowed"
  | Forbidden -> "forbidden"
  | Deadlock -> "deadlock"
  | Corruption -> "corruption"

(** The observed variables' final values, in [sh_observed] order. *)
let observed (shape : Shape.t) (r : Sim.Engine.result) =
  List.map
    (fun x -> (x, List.assoc_opt x r.Sim.Engine.r_final))
    shape.Shape.sh_observed

let classify (shape : Shape.t) (r : Sim.Engine.result) =
  match r.Sim.Engine.r_outcome with
  | Sim.Engine.Deadlock _ | Sim.Engine.Step_limit | Sim.Engine.Cancelled ->
    Deadlock
  | Sim.Engine.Completed ->
    let obs = observed shape r in
    let in_domain (x, v) =
      match (v, List.assoc_opt x shape.Shape.sh_domain) with
      | Some v, Some dom -> List.exists (Ast.equal_value v) dom
      | _ -> false
    in
    if not (List.for_all in_domain obs) then Corruption
    else begin
      let vector = List.filter_map snd obs in
      let mem set = List.exists (List.equal Ast.equal_value vector) set in
      if mem shape.Shape.sh_allowed_sc then Sc_consistent
      else if mem shape.Shape.sh_allowed_weak then Weak_allowed
      else Forbidden
    end
