(** Behavior lifetime estimation: how long a behavior executes on the
    component its partition maps to.  The channel transfer rate divides
    bits by this lifetime (paper, Section 5 and its reference [13]). *)

open Spec

(* Execution cycles of a behavior tree on a component: leaves cost their
   statements, sequential compositions cost the sum of their arms (each
   arm once — the static profile has no TOC loop counts), parallel
   compositions cost the slowest child. *)
let rec behavior_cycles comp (b : Ast.behavior) =
  match b.Ast.b_body with
  | Ast.Leaf stmts -> Cost_model.stmt_cycles comp stmts
  | Ast.Seq arms ->
    List.fold_left
      (fun acc a -> acc +. behavior_cycles comp a.Ast.a_behavior)
      0.0 arms
  | Ast.Par children ->
    List.fold_left
      (fun acc c -> max acc (behavior_cycles comp c))
      0.0 children

(** Lifetime in seconds of the named behavior on the given component.  A
    floor of one cycle avoids zero lifetimes for empty behaviors. *)
let behavior_seconds (p : Ast.program) comp name =
  match Program.lookup_behavior p name with
  | None -> invalid_arg (Printf.sprintf "Lifetime: unknown behavior %s" name)
  | Some b ->
    let cycles = max 1.0 (behavior_cycles comp b) in
    let mhz = Arch.Component.clock_mhz comp in
    if mhz <= 0.0 then
      invalid_arg
        (Printf.sprintf "Lifetime: component %s has no clock"
           comp.Arch.Component.c_name)
    else cycles /. (mhz *. 1e6)

(** Lifetime of a partitioned behavior: looked up through the partition
    and the allocation. *)
let partitioned_behavior_seconds p alloc part name =
  match Partitioning.Partition.part_of_behavior part name with
  | None -> invalid_arg (Printf.sprintf "Lifetime: behavior %s unassigned" name)
  | Some i -> behavior_seconds p (Arch.Allocation.component alloc i) name
