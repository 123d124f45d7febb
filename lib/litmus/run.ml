(** Running one shape under one (ordering, seed, faults) point. *)

type kernel = [ `Engine | `Reference ]

type outcome = {
  o_shape : string;
  o_ordering : Sim.Memord.policy;
  o_seed : int;
  o_result : Sim.Engine.result;
  o_observed : (string * Spec.Ast.value option) list;
  o_verdict : Classify.verdict;
  o_diverted : int;  (** updates diverted into port FIFOs *)
  o_reordered : int;  (** relaxed releases that overtook an older entry *)
}

let run ?(kernel = `Engine) ?(faults = []) ~ordering ~seed
    (shape : Shape.t) =
  let hooks =
    match faults with
    | [] -> Sim.Engine.no_hooks
    | fs -> Faults.Inject.hooks fs
  in
  (* Under [Sc] no ordering layer is installed at all, so the kernel
     runs the literally unchanged commit path — byte-identity with
     pre-ordering behavior is structural, not just observed. *)
  let mo =
    match ordering with
    | Sim.Memord.Sc -> None
    | policy ->
      Some (Sim.Memord.make ~policy ~seed ~port_of:(Shape.port_of shape))
  in
  let result =
    match kernel with
    | `Engine -> Sim.Engine.run ~hooks ?ordering:mo shape.Shape.sh_program
    | `Reference -> Sim.Reference.run ~hooks ?ordering:mo shape.Shape.sh_program
  in
  {
    o_shape = shape.Shape.sh_name;
    o_ordering = ordering;
    o_seed = seed;
    o_result = result;
    o_observed = Classify.observed shape result;
    o_verdict = Classify.classify shape result;
    o_diverted = (match mo with Some m -> Sim.Memord.diverted m | None -> 0);
    o_reordered = (match mo with Some m -> Sim.Memord.reordered m | None -> 0);
  }
