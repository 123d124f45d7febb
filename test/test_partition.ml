(** Tests for partitions, local/global classification, the cost function
    and the four automatic partitioners. *)

open Partitioning
open Helpers

let fig2 = Workloads.Smallspecs.fig2
let g2 = Agraph.Access_graph.of_program fig2
let medical_g = Workloads.Medical.graph

(* --- partition type ------------------------------------------------------ *)

let test_make_and_query () =
  let part = Workloads.Smallspecs.fig2_partition in
  Alcotest.(check int) "parts" 2 (Partition.n_parts part);
  Alcotest.(check (option int)) "B1" (Some 0) (Partition.part_of_behavior part "B1");
  Alcotest.(check (option int)) "B3" (Some 1) (Partition.part_of_behavior part "B3");
  Alcotest.(check (option int)) "v6" (Some 1) (Partition.part_of_variable part "v6");
  Alcotest.(check (option int)) "missing" None (Partition.part_of_behavior part "zz")

let test_members () =
  let part = Workloads.Smallspecs.fig2_partition in
  Alcotest.(check (list string)) "behaviors P0" [ "B1"; "B2" ]
    (Partition.behaviors_in part 0);
  Alcotest.(check (list string)) "vars P1" [ "v5"; "v6"; "v7" ]
    (Partition.variables_in part 1)

let test_make_errors () =
  let b = Partition.Obj_behavior "B1" in
  let make assocs =
    Result.map Partition.objects (Partition.make g2 ~n_parts:2 assocs)
  in
  let error = Alcotest.(result reject string) in
  Alcotest.check error "out of range"
    (Error "B1 assigned to partition 3 of 2") (make [ (b, 3) ]);
  Alcotest.check error "duplicate" (Error "duplicate object B1")
    (make [ (b, 0); (b, 1) ]);
  Alcotest.check error "incomplete"
    (Error
       "unassigned behavior B2; unassigned behavior B3; unassigned behavior \
        B4; unassigned variable v1; unassigned variable v2; unassigned \
        variable v3; unassigned variable v4; unassigned variable v5; \
        unassigned variable v6; unassigned variable v7")
    (make [ (b, 0) ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Partition: n_parts < 1") (fun () ->
      ignore (Partition.make g2 ~n_parts:0 []))

(* A partition assigns exactly its graph's objects, so one the graph
   lacks is refused by name. *)
let test_unknown_object () =
  let assocs =
    (Partition.Obj_behavior "EXTRA", 0)
    :: Partition.objects Workloads.Smallspecs.fig2_partition
  in
  Alcotest.(check (result reject string))
    "extra behavior" (Error "unknown behavior EXTRA")
    (Result.map Partition.objects (Partition.make g2 ~n_parts:2 assocs))

let test_complete_for () =
  (* fig1's partition assigns none of fig2's objects. *)
  (match Partition.complete_for g2 Workloads.Smallspecs.fig1_partition with
  | Ok () -> Alcotest.fail "expected missing objects"
  | Error msgs -> Alcotest.(check int) "4+7 missing" 11 (List.length msgs));
  match Partition.complete_for g2 Workloads.Smallspecs.fig2_partition with
  | Ok () -> ()
  | Error m -> Alcotest.failf "unexpected: %s" (String.concat ";" m)

(* --- classification ------------------------------------------------------ *)

let test_classify_fig2 () =
  let r = Classify.report Workloads.Smallspecs.fig2_partition in
  Alcotest.(check (list string)) "locals" [ "v1"; "v2"; "v3"; "v6" ] r.Classify.locals;
  Alcotest.(check (list string)) "globals" [ "v4"; "v5"; "v7" ] r.Classify.globals;
  Alcotest.(check (list string)) "unaccessed" [] r.Classify.unaccessed

let test_classify_designs () =
  let counts d =
    let r =
      Classify.report d.Workloads.Designs.d_partition
    in
    (List.length r.Classify.locals, List.length r.Classify.globals)
  in
  Alcotest.(check (pair int int)) "Design1 balanced" (7, 7)
    (counts Workloads.Designs.design1);
  Alcotest.(check (pair int int)) "Design2 mostly local" (10, 4)
    (counts Workloads.Designs.design2);
  Alcotest.(check (pair int int)) "Design3 mostly global" (4, 10)
    (counts Workloads.Designs.design3)

let test_classify_single_partition () =
  (* With everything on one component, every variable is local. *)
  let part = Partition.of_graph g2 ~n_parts:1 (fun _ -> 0) in
  let r = Classify.report part in
  Alcotest.(check int) "all local" 7 (List.length r.Classify.locals);
  Alcotest.(check int) "none global" 0 (List.length r.Classify.globals)

let test_classify_variable_away_from_users () =
  (* A variable homed away from its only users is global. *)
  let part =
    Partition.of_graph g2 ~n_parts:2 (fun o ->
        match o with
        | Partition.Obj_variable "v6" -> 0 (* users B3 B4 live on 1 *)
        | Partition.Obj_behavior b -> if List.mem b [ "B3"; "B4" ] then 1 else 0
        | Partition.Obj_variable _ -> 0)
  in
  Alcotest.(check bool) "v6 global" true
    (List.mem "v6" (Classify.report part).Classify.globals)

let test_ratio () =
  let r =
    { Classify.locals = [ "a"; "b"; "c" ]; globals = [ "d" ]; unaccessed = [] }
  in
  Alcotest.(check (float 1e-9)) "3/1" 3.0 (Classify.ratio r)

(* --- cost ---------------------------------------------------------------- *)

let test_comm_bits_zero_when_together () =
  let part = Partition.of_graph g2 ~n_parts:2 (fun _ -> 0) in
  Alcotest.(check int) "no traffic" 0 (Cost.comm_bits part)

let test_comm_bits_counts_cross_edges () =
  let part = Workloads.Smallspecs.fig2_partition in
  let expected =
    List.fold_left
      (fun acc (e : Agraph.Access_graph.data_edge) ->
        let bp =
          Option.get (Partition.part_of_behavior part e.Agraph.Access_graph.de_behavior)
        in
        let vp =
          Option.get (Partition.part_of_variable part e.Agraph.Access_graph.de_variable)
        in
        if bp <> vp then acc + Agraph.Access_graph.edge_bits e else acc)
      0 g2.Agraph.Access_graph.g_data
  in
  Alcotest.(check int) "matches definition" expected (Cost.comm_bits part);
  Alcotest.(check bool) "positive" true (expected > 0)

let test_cost_total_monotone_in_comm () =
  (* The all-on-one-side partition has zero comm but high imbalance; the
     weights trade them off. *)
  let together = Partition.of_graph g2 ~n_parts:2 (fun _ -> 0) in
  let split = Workloads.Smallspecs.fig2_partition in
  let w = { Cost.w_comm = 1.0; w_balance = 0.0 } in
  Alcotest.(check bool) "comm-only prefers together" true
    (Cost.total ~weights:w together < Cost.total ~weights:w split);
  let w = { Cost.w_comm = 0.0; w_balance = 1.0 } in
  Alcotest.(check bool) "balance-only prefers split" true
    (Cost.total ~weights:w split < Cost.total ~weights:w together)

(* --- rng ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed differs" true (seq (Rng.create 7) <> seq c)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let n = Rng.int r 7 in
    if n < 0 || n >= 7 then Alcotest.failf "out of bounds: %d" n
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 11 in
  let xs = List.init 30 Fun.id in
  let ys = Rng.shuffle r xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

(* --- partitioners --------------------------------------------------------- *)

let complete_and_valid g part =
  match Partition.complete_for g part with
  | Ok () -> true
  | Error _ -> false

let test_greedy_complete () =
  List.iter
    (fun n ->
      let part = Greedy.run medical_g ~n_parts:n in
      Alcotest.(check bool)
        (Printf.sprintf "complete p=%d" n)
        true
        (complete_and_valid medical_g part))
    [ 1; 2; 3; 4 ]

let test_kl_improves_or_keeps () =
  let start = Greedy.run medical_g ~n_parts:2 in
  let improved = Kl.run start in
  Alcotest.(check bool) "no worse" true
    (Cost.total improved <= Cost.total start);
  Alcotest.(check bool) "complete" true (complete_and_valid medical_g improved)

let test_annealing_deterministic () =
  let a = Annealing.run ~config:{ Annealing.default_config with steps = 300 } medical_g ~n_parts:2 in
  let b = Annealing.run ~config:{ Annealing.default_config with steps = 300 } medical_g ~n_parts:2 in
  Alcotest.(check (list (pair string int)))
    "same result for same seed"
    (List.map (fun (o, i) -> (Partition.obj_name o, i)) (Partition.objects a))
    (List.map (fun (o, i) -> (Partition.obj_name o, i)) (Partition.objects b))

let test_annealing_complete () =
  let part =
    Annealing.run ~config:{ Annealing.default_config with steps = 300 }
      medical_g ~n_parts:3
  in
  Alcotest.(check bool) "complete" true (complete_and_valid medical_g part)

let test_clustering_complete () =
  List.iter
    (fun n ->
      let part = Clustering.run medical_g ~n_parts:n in
      Alcotest.(check bool)
        (Printf.sprintf "complete p=%d" n)
        true
        (complete_and_valid medical_g part))
    [ 2; 3; 5 ]

let test_clustering_groups_affine_objects () =
  (* In fig2, v6 is used only by B3 and B4: clustering must put v6 with at
     least one of them. *)
  let part = Clustering.run g2 ~n_parts:2 in
  let v6 = Option.get (Partition.part_of_variable part "v6") in
  let b3 = Option.get (Partition.part_of_behavior part "B3") in
  let b4 = Option.get (Partition.part_of_behavior part "B4") in
  Alcotest.(check bool) "affinity respected" true (v6 = b3 || v6 = b4)

let test_partitioners_beat_random_on_comm () =
  (* Greedy+KL should not lose to a random assignment on communication. *)
  let random = Workloads.Generator.random_partition ~seed:99 medical_g ~n_parts:2 in
  let smart = Kl.run_from_scratch medical_g ~n_parts:2 in
  Alcotest.(check bool) "smart <= random comm" true
    (Cost.comm_bits smart <= Cost.comm_bits random)

let test_design_search_deterministic () =
  let objects bias seed =
    let part = Design_search.run ~seed ~steps:1500 medical_g ~n_parts:2 ~bias in
    List.map (fun (o, i) -> (Partition.obj_name o, i)) (Partition.objects part)
  in
  List.iter
    (fun bias ->
      Alcotest.(check (list (pair string int)))
        "same seed, same partition"
        (objects bias 5) (objects bias 5))
    [ Design_search.Balanced; Design_search.Mostly_local;
      Design_search.Mostly_global ]

let test_design_search_bias_moves_balance () =
  (* The biases must actually shift the local/global split, not just
     order it: Mostly_local yields a majority of locals, Mostly_global a
     majority of globals. *)
  let counts bias =
    let part = Design_search.run ~seed:5 ~steps:3000 medical_g ~n_parts:2 ~bias in
    let r = Classify.report part in
    (List.length r.Classify.locals, List.length r.Classify.globals)
  in
  let ll, lg = counts Design_search.Mostly_local in
  let gl, gg = counts Design_search.Mostly_global in
  Alcotest.(check bool)
    (Printf.sprintf "Mostly_local: %d local > %d global" ll lg)
    true (ll > lg);
  Alcotest.(check bool)
    (Printf.sprintf "Mostly_global: %d global > %d local" gg gl)
    true (gg > gl);
  (* And the searched partitions stay complete and usable. *)
  List.iter
    (fun bias ->
      Alcotest.(check bool) "complete" true
        (complete_and_valid medical_g
           (Design_search.run ~seed:9 ~steps:1500 medical_g ~n_parts:2 ~bias)))
    [ Design_search.Balanced; Design_search.Mostly_local;
      Design_search.Mostly_global ]

let test_design_search_biases () =
  let globals bias =
    let part = Design_search.run ~seed:5 ~steps:3000 medical_g ~n_parts:2 ~bias in
    let r = Classify.report part in
    List.length r.Classify.globals
  in
  let gl = globals Design_search.Mostly_local in
  let gb = globals Design_search.Balanced in
  let gg = globals Design_search.Mostly_global in
  Alcotest.(check bool)
    (Printf.sprintf "ordering %d <= %d <= %d" gl gb gg)
    true
    (gl <= gb && gb <= gg);
  Alcotest.(check bool) "spread" true (gl < gg)

(* --- indexed scoring = the string-map definitions ------------------------ *)

(* The partitioners' scoring before it moved onto the graph's numbering:
   string-map lookups per data edge, a fresh user map per report, a new
   partition per annealing step and per KL candidate.  Kept verbatim as
   the oracle the indexed code must match exactly. *)
module Oracle = struct
  open Agraph

  (* Inside the oracle, [Partition] is the former string-map partition:
     its own obj -> int map, built from [Partitioning.Partition.objects]. *)
  module Partition = struct
    type obj = Partition.obj = Obj_behavior of string | Obj_variable of string

    let compare_obj = Partition.compare_obj

    module Omap = Map.Make (struct
      type t = obj

      let compare = compare_obj
    end)

    type t = { assignment : int Omap.t; parts : int }

    let of_partition p =
      {
        assignment = Omap.of_seq (List.to_seq (Partition.objects p));
        parts = Partition.n_parts p;
      }

    let of_graph g ~n_parts place =
      of_partition (Partition.of_graph g ~n_parts place)

    let n_parts t = t.parts
    let part_of t o = Omap.find_opt o t.assignment
    let part_of_behavior t n = part_of t (Obj_behavior n)
    let part_of_variable t n = part_of t (Obj_variable n)
    let assign t o i = { t with assignment = Omap.add o i t.assignment }
    let objects t = Omap.bindings t.assignment

    let behaviors_in t i =
      Omap.fold
        (fun o j acc ->
          match o with
          | Obj_behavior n when j = i -> n :: acc
          | Obj_behavior _ | Obj_variable _ -> acc)
        t.assignment []
      |> List.rev
  end

  let cost_part_of_behavior part b =
    match Partition.part_of_behavior part b with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Cost: behavior %s unassigned" b)

  let cost_part_of_variable part v =
    match Partition.part_of_variable part v with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Cost: variable %s unassigned" v)

  let comm_bits (g : Access_graph.t) part =
    List.fold_left
      (fun acc (e : Access_graph.data_edge) ->
        if
          cost_part_of_behavior part e.Access_graph.de_behavior
          <> cost_part_of_variable part e.Access_graph.de_variable
        then acc + Access_graph.edge_bits e
        else acc)
      0 g.Access_graph.g_data

  let part_loads (g : Access_graph.t) part =
    let loads = Array.make (Partition.n_parts part) 0.0 in
    List.iter
      (fun (e : Access_graph.data_edge) ->
        let i = cost_part_of_behavior part e.Access_graph.de_behavior in
        loads.(i) <- loads.(i) +. float_of_int (Access_graph.edge_bits e))
      g.Access_graph.g_data;
    loads

  let imbalance g part =
    let loads = part_loads g part in
    let mx = Array.fold_left max neg_infinity loads in
    let mn = Array.fold_left min infinity loads in
    mx -. mn

  let total ?(weights = Cost.default_weights) g part =
    (weights.Cost.w_comm *. float_of_int (comm_bits g part))
    +. (weights.Cost.w_balance *. imbalance g part)

  let home_of part v =
    match Partition.part_of_variable part v with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Classify: variable %s unassigned" v)

  let classify_part_of_behavior part b =
    match Partition.part_of_behavior part b with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Classify: behavior %s unassigned" b)

  let report g part =
    let users =
      List.fold_left
        (fun m (e : Agraph.Access_graph.data_edge) ->
          let v = e.Agraph.Access_graph.de_variable in
          let bs = Option.value (Spec.Names.Map.find_opt v m) ~default:[] in
          Spec.Names.Map.add v (e.Agraph.Access_graph.de_behavior :: bs) m)
        Spec.Names.Map.empty g.Agraph.Access_graph.g_data
    in
    let step (locals, globals, unaccessed) v =
      match Spec.Names.Map.find_opt v users with
      | None -> (locals, globals, v :: unaccessed)
      | Some bs ->
        let home = home_of part v in
        let bs = List.sort_uniq String.compare bs in
        if List.for_all (fun b -> classify_part_of_behavior part b = home) bs
        then (v :: locals, globals, unaccessed)
        else (locals, v :: globals, unaccessed)
    in
    let locals, globals, unaccessed =
      List.fold_left step ([], [], []) g.Agraph.Access_graph.g_variables
    in
    {
      Classify.locals = List.rev locals;
      globals = List.rev globals;
      unaccessed = List.rev unaccessed;
    }

  let target_globals bias n_accessed =
    match bias with
    | Design_search.Balanced -> n_accessed / 2
    | Design_search.Mostly_local -> max 1 (n_accessed / 4)
    | Design_search.Mostly_global -> n_accessed - max 1 (n_accessed / 4)

  let design_objective g ~bias part =
    let r = report g part in
    let n_accessed = List.length r.Classify.locals + List.length r.Classify.globals in
    let target = target_globals bias n_accessed in
    let deviation = abs (List.length r.Classify.globals - target) in
    let n = Partition.n_parts part in
    let empty_parts =
      List.length
        (List.filter (fun i -> Partition.behaviors_in part i = []) (List.init n (fun i -> i)))
    in
    (1000.0 *. float_of_int deviation)
    +. (10000.0 *. float_of_int empty_parts)
    +. (0.001 *. float_of_int (comm_bits g part))

  let random_partition rng g ~n_parts =
    Partition.of_graph g ~n_parts (fun _ -> Rng.int rng n_parts)

  let run_objective ?(config = Annealing.default_config) ~objective g ~n_parts =
    let rng = Rng.create config.Annealing.seed in
    let current = ref (random_partition rng g ~n_parts) in
    let current_cost = ref (objective !current) in
    let best = ref !current in
    let best_cost = ref !current_cost in
    let objs = List.map fst (Partition.objects !current) in
    let n_objs = List.length objs in
    let temp = ref config.Annealing.initial_temp in
    for _ = 1 to config.Annealing.steps do
      let o = List.nth objs (Rng.int rng n_objs) in
      let target = Rng.int rng n_parts in
      let next = Partition.assign !current o target in
      let next_cost = objective next in
      let delta = next_cost -. !current_cost in
      let accept =
        delta <= 0.0
        || (!temp > 0.0 && Rng.float rng < exp (-.delta /. !temp))
      in
      if accept then begin
        current := next;
        current_cost := next_cost;
        if next_cost < !best_cost then begin
          best := next;
          best_cost := next_cost
        end
      end;
      temp := !temp *. config.Annealing.cooling
    done;
    !best

  let all_objects part = List.map fst (Partition.objects part)

  let best_move ?weights g part locked =
    let n = Partition.n_parts part in
    let candidates =
      List.concat_map
        (fun o ->
          if List.exists (fun l -> Partition.compare_obj l o = 0) locked then []
          else
            match Partition.part_of part o with
            | None -> []
            | Some cur ->
              List.filter_map
                (fun i -> if i <> cur then Some (o, i) else None)
                (List.init n (fun i -> i)))
        (all_objects part)
    in
    let scored =
      List.map
        (fun (o, i) ->
          let part' = Partition.assign part o i in
          (total ?weights g part', o, i, part'))
        candidates
    in
    match scored with
    | [] -> None
    | first :: rest ->
      let best =
        List.fold_left
          (fun (bc, bo, bi, bp) (c, o, i, p) ->
            if c < bc then (c, o, i, p) else (bc, bo, bi, bp))
          first rest
      in
      Some best

  let one_pass ?weights ?(max_moves = 64) g part =
    let rec go part locked best best_cost moves =
      if moves >= max_moves then best
      else
        match best_move ?weights g part locked with
        | None -> best
        | Some (cost, o, _, part') ->
          let best, best_cost =
            if cost < best_cost then (part', cost) else (best, best_cost)
          in
          go part' (o :: locked) best best_cost (moves + 1)
    in
    go part [] part (total ?weights g part) 0

  let kl ?weights ?(max_passes = 8) g part =
    let rec go part cost pass =
      if pass >= max_passes then part
      else
        let part' = one_pass ?weights g part in
        let cost' = total ?weights g part' in
        if cost' < cost then go part' cost' (pass + 1) else part
    in
    go part (total ?weights g part) 0
end

(* A generated graph and a random partition of it. *)
let gen_case =
  QCheck.(
    make
      ~print:(fun (s, v, l, n) ->
        Printf.sprintf "seed=%d vars=%d leaves=%d parts=%d" s v l n)
      Gen.(
        quad (int_range 1 5000) (int_range 1 10) (int_range 1 10)
          (int_range 1 4)))

let case_graph (seed, vars, leaves, n_parts) =
  let g =
    Agraph.Access_graph.of_program
      (Workloads.Generator.program
         {
           Workloads.Generator.default_config with
           gen_seed = seed;
           gen_vars = vars;
           gen_leaves = leaves;
           gen_par_branches = seed mod 3;
         })
  in
  (g, Workloads.Generator.random_partition ~seed g ~n_parts)

let prop_indexed_scores =
  QCheck.Test.make ~count:300 ~name:"indexed scores = string-map scores" gen_case
    (fun ((seed, _, _, _) as case) ->
      let g, part = case_graph case in
      let old = Oracle.Partition.of_partition part in
      let w = { Cost.w_comm = 0.3 +. float_of_int (seed mod 7); w_balance = 0.7 } in
      Cost.total part = Oracle.total g old
      && Cost.total ~weights:w part = Oracle.total ~weights:w g old
      && Cost.comm_bits part = Oracle.comm_bits g old
      && Cost.part_loads part = Oracle.part_loads g old
      && Cost.imbalance part = Oracle.imbalance g old
      && Classify.report part = Oracle.report g old
      && List.for_all
           (fun bias ->
             Design_search.objective ~bias part
             = Oracle.design_objective g ~bias old)
           [ Design_search.Balanced; Design_search.Mostly_local;
             Design_search.Mostly_global ])

let prop_indexed_searches =
  QCheck.Test.make ~count:40 ~name:"indexed searches = string-map searches"
    gen_case (fun ((seed, _, _, n_parts) as case) ->
      let g, part = case_graph case in
      let config = { Annealing.default_config with seed; steps = 300 } in
      let same a b = Partition.objects a = Oracle.Partition.objects b in
      same (Annealing.run ~config g ~n_parts)
        (Oracle.run_objective ~config ~objective:(Oracle.total g) g ~n_parts)
      && List.for_all
           (fun bias ->
             same
               (Design_search.run ~seed ~steps:300 g ~n_parts ~bias)
               (Oracle.run_objective ~config
                  ~objective:(Oracle.design_objective g ~bias) g ~n_parts))
           [ Design_search.Balanced; Design_search.Mostly_local;
             Design_search.Mostly_global ]
      && same (Kl.run part) (Oracle.kl g (Oracle.Partition.of_partition part)))

let prop_partitioners_complete =
  QCheck.Test.make ~count:30 ~name:"all partitioners yield complete partitions"
    QCheck.(make Gen.(pair (int_range 1 2000) (int_range 2 4)))
    (fun (seed, n_parts) ->
      let p =
        Workloads.Generator.program
          { Workloads.Generator.default_config with gen_seed = seed }
      in
      let g = Agraph.Access_graph.of_program p in
      List.for_all
        (fun part -> complete_and_valid g part)
        [
          Greedy.run g ~n_parts;
          Kl.run_from_scratch g ~n_parts;
          Annealing.run
            ~config:{ Annealing.default_config with steps = 200; seed }
            g ~n_parts;
          Clustering.run g ~n_parts;
        ])

let () =
  Alcotest.run "partitioning"
    [
      ( "partition",
        [
          tc "make/query" test_make_and_query;
          tc "members" test_members;
          tc "make errors" test_make_errors;
          tc "unknown object rejected" test_unknown_object;
          tc "complete_for" test_complete_for;
        ] );
      ( "classify",
        [
          tc "fig2" test_classify_fig2;
          tc "designs 7/7 10/4 4/10" test_classify_designs;
          tc "single partition" test_classify_single_partition;
          tc "var away from users" test_classify_variable_away_from_users;
          tc "ratio" test_ratio;
        ] );
      ( "cost",
        [
          tc "zero when together" test_comm_bits_zero_when_together;
          tc "counts cross edges" test_comm_bits_counts_cross_edges;
          tc "weight tradeoff" test_cost_total_monotone_in_comm;
        ] );
      ( "rng",
        [
          tc "determinism" test_rng_determinism;
          tc "bounds" test_rng_bounds;
          tc "shuffle permutes" test_rng_shuffle_permutes;
        ] );
      ( "algorithms",
        [
          tc "greedy complete" test_greedy_complete;
          tc "kl improves" test_kl_improves_or_keeps;
          tc "annealing deterministic" test_annealing_deterministic;
          tc "annealing complete" test_annealing_complete;
          tc "clustering complete" test_clustering_complete;
          tc "clustering affinity" test_clustering_groups_affine_objects;
          tc "smart beats random" test_partitioners_beat_random_on_comm;
          tc "design search biases" test_design_search_biases;
          tc "design search deterministic" test_design_search_deterministic;
          tc "design search moves balance" test_design_search_bias_moves_balance;
          QCheck_alcotest.to_alcotest prop_partitioners_complete;
          QCheck_alcotest.to_alcotest prop_indexed_scores;
          QCheck_alcotest.to_alcotest prop_indexed_searches;
        ] );
    ]
