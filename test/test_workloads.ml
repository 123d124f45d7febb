(** Tests pinning the experimental workloads to the paper's published
    profile: the medical system's 16 behaviors / 14 variables / 52
    channels, the three designs' local/global balances, and the generator's
    guarantees. *)

open Helpers

let test_medical_profile () =
  Alcotest.(check int) "16 leaf behaviors" 16
    (List.length Workloads.Medical.objects);
  Alcotest.(check int) "14 variables" 14
    (List.length Workloads.Medical.variable_names);
  Alcotest.(check int) "52 channels" 52
    (Agraph.Access_graph.channel_count Workloads.Medical.graph)

let test_medical_objects_are_leaves () =
  Alcotest.(check (list string)) "leaf set" Workloads.Medical.leaf_names
    Workloads.Medical.objects

let test_medical_validates_and_runs () =
  ignore (Spec.Program.validate_exn Workloads.Medical.spec);
  let r = run_ok Workloads.Medical.spec in
  Alcotest.(check bool) "emits log" true (trace_values "log_volume" r <> [])

let test_medical_computation_sane () =
  (* 8 measurement iterations, positive average and volume, alarm state
     consistent with the threshold comparison. *)
  let r = run_ok Workloads.Medical.spec in
  check_value "count is 8" (vint 8) (final r "count");
  (match final r "volume" with
  | Spec.Ast.VInt v -> Alcotest.(check bool) "volume > 0" true (v > 0)
  | _ -> Alcotest.fail "volume not an int");
  match (final r "alarm_on", final r "volume", final r "threshold") with
  | Spec.Ast.VBool alarm, Spec.Ast.VInt v, Spec.Ast.VInt th ->
    Alcotest.(check bool) "alarm consistent" alarm (v > th)
  | _ -> Alcotest.fail "unexpected value kinds"

let test_design_balances () =
  let counts (d : Workloads.Designs.design) =
    let r =
      Partitioning.Classify.report d.Workloads.Designs.d_partition
    in
    ( List.length r.Partitioning.Classify.locals,
      List.length r.Partitioning.Classify.globals )
  in
  let l1, g1 = counts Workloads.Designs.design1 in
  let l2, g2 = counts Workloads.Designs.design2 in
  let l3, g3 = counts Workloads.Designs.design3 in
  Alcotest.(check bool) "design1 balanced" true (l1 = g1);
  Alcotest.(check bool) "design2 local-heavy" true (l2 > g2);
  Alcotest.(check bool) "design3 global-heavy" true (l3 < g3);
  Alcotest.(check int) "all 14 classified (d1)" 14 (l1 + g1);
  Alcotest.(check int) "all 14 classified (d2)" 14 (l2 + g2);
  Alcotest.(check int) "all 14 classified (d3)" 14 (l3 + g3)

let test_designs_cover_graph () =
  List.iter
    (fun (d : Workloads.Designs.design) ->
      match
        Partitioning.Partition.complete_for Workloads.Medical.graph
          d.Workloads.Designs.d_partition
      with
      | Ok () -> ()
      | Error msgs ->
        Alcotest.failf "%s: %s" d.Workloads.Designs.d_name
          (String.concat "; " msgs))
    Workloads.Designs.all

let test_designs_use_both_components () =
  List.iter
    (fun (d : Workloads.Designs.design) ->
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has behaviors on %d" d.Workloads.Designs.d_name i)
            true
            (Partitioning.Partition.behaviors_in d.Workloads.Designs.d_partition i
            <> []))
        [ 0; 1 ])
    Workloads.Designs.all

let test_fig_specs_profiles () =
  let r = Partitioning.Classify.report Workloads.Smallspecs.fig2_partition in
  (* The paper's Figure 2: v1 v2 v3 v6 local, v4 v5 v7 global. *)
  Alcotest.(check (list string)) "locals" [ "v1"; "v2"; "v3"; "v6" ]
    r.Partitioning.Classify.locals;
  Alcotest.(check (list string)) "globals" [ "v4"; "v5"; "v7" ]
    r.Partitioning.Classify.globals

let test_generator_determinism () =
  let cfg = { Workloads.Generator.default_config with gen_seed = 77 } in
  let p1 = Workloads.Generator.program cfg in
  let p2 = Workloads.Generator.program cfg in
  Alcotest.(check bool) "same seed, same program" true
    (Spec.Ast.equal_program p1 p2);
  let p3 =
    Workloads.Generator.program
      { Workloads.Generator.default_config with gen_seed = 78 }
  in
  Alcotest.(check bool) "different seed differs" false
    (Spec.Ast.equal_program p1 p3)

let test_generator_respects_config () =
  let cfg =
    {
      Workloads.Generator.default_config with
      gen_seed = 5;
      gen_vars = 9;
      gen_leaves = 11;
    }
  in
  let p = Workloads.Generator.program cfg in
  let g = Agraph.Access_graph.of_program p in
  Alcotest.(check int) "vars" 9 (List.length g.Agraph.Access_graph.g_variables);
  Alcotest.(check int) "leaves" 11 (List.length g.Agraph.Access_graph.g_objects)

let test_generator_parallel_branches_disjoint () =
  let cfg =
    {
      Workloads.Generator.default_config with
      gen_seed = 9;
      gen_par_branches = 3;
      gen_vars = 9;
      gen_leaves = 9;
    }
  in
  let p = Workloads.Generator.program cfg in
  match p.Spec.Ast.p_top.Spec.Ast.b_body with
  | Spec.Ast.Par branches ->
    let vars_of b =
      List.filter
        (fun v -> String.length v > 0 && v.[0] = 'g')
        (Spec.Behavior.fold
           (fun acc b ->
             match b.Spec.Ast.b_body with
             | Spec.Ast.Leaf stmts ->
               Spec.Stmt.reads stmts @ Spec.Stmt.writes stmts @ acc
             | _ -> acc)
           [] b)
      |> List.sort_uniq String.compare
    in
    let sets = List.map vars_of branches in
    List.iteri
      (fun i si ->
        List.iteri
          (fun j sj ->
            if i < j then
              List.iter
                (fun v ->
                  if List.mem v sj then
                    Alcotest.failf "branches %d and %d share %s" i j v)
                si)
          sets)
      sets
  | _ -> Alcotest.fail "expected parallel top"

let test_elevator_profile () =
  ignore (Spec.Program.validate_exn Workloads.Elevator.spec);
  (match Spec.Typecheck.check Workloads.Elevator.spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "types: %s" (String.concat "; " e));
  Alcotest.(check int) "12 leaf objects" 12
    (List.length Workloads.Elevator.graph.Agraph.Access_graph.g_objects);
  Alcotest.(check int) "10 variables" 10
    (List.length Workloads.Elevator.graph.Agraph.Access_graph.g_variables)

let test_elevator_serves_all_requests () =
  let r = run_ok Workloads.Elevator.spec in
  (* The service loop drains the request queue (45 -> 0 in 6 halvings). *)
  check_value "queue drained" (vint 0) (final r "requests");
  Alcotest.(check int) "six services" 6
    (List.length (trace_values "served" r));
  check_value "trips counted" (vint 6) (final r "trips");
  check_value "door closed at end" (vint 0) (final r "door")

let test_elevator_partition_covers () =
  match
    Partitioning.Partition.complete_for Workloads.Elevator.graph
      Workloads.Elevator.partition
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "incomplete: %s" (String.concat "; " m)

let test_fir_profile_and_filter () =
  ignore (Spec.Program.validate_exn Workloads.Fir.spec);
  (match Spec.Typecheck.check Workloads.Fir.spec with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "types: %s" (String.concat "; " errs));
  let r = run_ok Workloads.Fir.spec in
  Alcotest.(check int) "10 outputs" 10 (List.length (trace_values "y" r));
  check_value "10 samples" (vint 10) (final r "n");
  (* The energy accumulator must match the sum of squared outputs. *)
  let energy =
    List.fold_left
      (fun acc v -> match v with Spec.Ast.VInt y -> acc + (y * y) | _ -> acc)
      0 (trace_values "y" r)
  in
  check_value "energy consistent" (vint energy) (final r "acc_energy");
  (* The delay line's tail equals the 4th-newest sample. *)
  Alcotest.(check bool) "tail emitted" true (trace_values "tail" r <> [])

let test_fir_addresses_cover_arrays () =
  let a = Core.Address.build Workloads.Fir.spec in
  Alcotest.(check int) "coeff base" 0 (Core.Address.address a "coeff");
  Alcotest.(check int) "delay after coeff" 4 (Core.Address.address a "delay");
  Alcotest.(check int) "scalars after arrays" 8 (Core.Address.address a "sample");
  (* 8 array slots + 5 scalars = 13 addresses -> 4-bit address bus *)
  Alcotest.(check int) "addr width" 4 a.Core.Address.addr_width

(* Each built-in workload and its shipped source text: the file must be
   exactly the printed workload, parse back to it, and print back to
   itself, so neither copy can drift from the other. *)
let shipped =
  [
    ("fig1", Workloads.Smallspecs.fig1);
    ("fig2", Workloads.Smallspecs.fig2);
    ("pingpong", Workloads.Smallspecs.ping_pong);
    ("medical", Workloads.Medical.spec);
    ("elevator", Workloads.Elevator.spec);
    ("fir", Workloads.Fir.spec);
  ]

let test_shipped_sources () =
  List.iter
    (fun (name, program) ->
      let text =
        In_channel.with_open_bin
          ("../examples/specs/" ^ name ^ ".sc")
          In_channel.input_all
      in
      Alcotest.(check string)
        (name ^ ".sc is the printed workload")
        text
        (Spec.Printer.program_to_string program);
      let parsed = Spec.Parser.program_of_string_exn text in
      Alcotest.check program_testable (name ^ ".sc parses to the workload")
        program parsed;
      Alcotest.(check string)
        (name ^ ".sc is a printer fixpoint")
        text
        (Spec.Printer.program_to_string parsed))
    shipped

let prop_generated_valid =
  QCheck.Test.make ~count:60 ~name:"generated specs validate"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let p =
        Workloads.Generator.program
          { Workloads.Generator.default_config with gen_seed = seed }
      in
      Spec.Program.validate p = Ok ())

let () =
  Alcotest.run "workloads"
    [
      ( "medical",
        [
          tc "paper profile 16/14/52" test_medical_profile;
          tc "objects are the leaves" test_medical_objects_are_leaves;
          tc "validates and runs" test_medical_validates_and_runs;
          tc "computation sane" test_medical_computation_sane;
        ] );
      ( "designs",
        [
          tc "local/global balances" test_design_balances;
          tc "cover the graph" test_designs_cover_graph;
          tc "use both components" test_designs_use_both_components;
          tc "fig2 classification" test_fig_specs_profiles;
        ] );
      ( "elevator",
        [
          tc "profile" test_elevator_profile;
          tc "serves all requests" test_elevator_serves_all_requests;
          tc "partition covers" test_elevator_partition_covers;
        ] );
      ( "fir",
        [
          tc "profile and filter" test_fir_profile_and_filter;
          tc "array addressing" test_fir_addresses_cover_arrays;
        ] );
      ("sources", [ tc "shipped .sc files" test_shipped_sources ]);
      ( "generator",
        [
          tc "determinism" test_generator_determinism;
          tc "respects config" test_generator_respects_config;
          tc "parallel branches disjoint" test_generator_parallel_branches_disjoint;
          QCheck_alcotest.to_alcotest prop_generated_valid;
        ] );
    ]
