(** Tests for the refinement core: implementation models, naming,
    addressing, bus planning, control/data refinement, the full refiner
    and its structural checks. *)

open Spec
open Spec.Ast
open Helpers

let fig1 = Workloads.Smallspecs.fig1
let fig2 = Workloads.Smallspecs.fig2
let g2 = Agraph.Access_graph.of_program fig2
let part2 = Workloads.Smallspecs.fig2_partition

(* --- Model ----------------------------------------------------------------- *)

let test_model_bus_bounds () =
  List.iter
    (fun p ->
      Alcotest.(check int) "m1" 1 (Core.Model.max_buses Core.Model.Model1 ~p);
      Alcotest.(check int) "m2" (p + 1) (Core.Model.max_buses Core.Model.Model2 ~p);
      Alcotest.(check int) "m3" (p + (p * p)) (Core.Model.max_buses Core.Model.Model3 ~p);
      Alcotest.(check int) "m4" ((2 * p) + 1) (Core.Model.max_buses Core.Model.Model4 ~p))
    [ 1; 2; 3; 5; 8 ]

let test_model_ports () =
  Alcotest.(check int) "m1 single" 1
    (Core.Model.global_memory_ports Core.Model.Model1 ~p:4);
  Alcotest.(check int) "m2 single" 1
    (Core.Model.global_memory_ports Core.Model.Model2 ~p:4);
  Alcotest.(check int) "m3 multi" 4
    (Core.Model.global_memory_ports Core.Model.Model3 ~p:4);
  Alcotest.(check int) "m4 none" 0
    (Core.Model.global_memory_ports Core.Model.Model4 ~p:4)

let test_model_of_string () =
  Alcotest.(check bool) "model3" true
    (Core.Model.of_string "Model3" = Some Core.Model.Model3);
  Alcotest.(check bool) "4" true (Core.Model.of_string "4" = Some Core.Model.Model4);
  Alcotest.(check bool) "bad" true (Core.Model.of_string "zzz" = None)

(* --- Naming ----------------------------------------------------------------- *)

let test_naming_fresh () =
  let n = Core.Naming.of_names [ "B"; "B_CTRL" ] in
  Alcotest.(check string) "avoid clash" "B_CTRL_2" (Core.Naming.ctrl n "B");
  Alcotest.(check string) "derived stays fresh" "B_CTRL_CTRL" (Core.Naming.ctrl n "B_CTRL");
  Alcotest.(check string) "new ok" "B_NEW" (Core.Naming.moved n "B")

let test_naming_of_program () =
  let n = Core.Naming.of_program Workloads.Medical.spec in
  Alcotest.(check bool) "behavior used" true (Core.Naming.is_used n "ACQUIRE");
  Alcotest.(check bool) "variable used" true (Core.Naming.is_used n "sample");
  Alcotest.(check bool) "fresh avoids" true
    (Core.Naming.fresh n "sample" <> "sample")

(* [fresh] against a naive reference that searches suffixes from [_2]
   on every call, over random interleavings of fresh and reserved names
   (reservations land in the middle of suffix runs). *)
let prop_naming_fresh_naive =
  let module S = Set.Make (String) in
  let op =
    QCheck.Gen.(
      pair bool
        (oneofl [ "x"; "y"; "x_2"; "x_3"; "x_5"; "y_2"; "x_2_2"; "x_9" ]))
  in
  QCheck.Test.make ~count:200 ~name:"fresh matches a naive suffix search"
    QCheck.(
      make
        ~print:
          (Print.list (fun (f, n) -> (if f then "fresh " else "reserve ") ^ n))
        Gen.(list_size (int_bound 40) op))
    (fun ops ->
      let t = Core.Naming.of_names [ "x" ] in
      let used = ref (S.singleton "x") in
      let naive base =
        let rec go i =
          let c = Printf.sprintf "%s_%d" base i in
          if S.mem c !used then go (i + 1) else c
        in
        let name = if S.mem base !used then go 2 else base in
        used := S.add name !used;
        name
      in
      List.for_all
        (fun (is_fresh, n) ->
          if is_fresh then String.equal (Core.Naming.fresh t n) (naive n)
          else begin
            Core.Naming.reserve t n;
            used := S.add n !used;
            true
          end)
        ops)

(* --- Address ----------------------------------------------------------------- *)

let test_address_assignment () =
  let a = Core.Address.build fig2 in
  Alcotest.(check int) "v1 at 0" 0 (Core.Address.address a "v1");
  Alcotest.(check int) "v7 at 6" 6 (Core.Address.address a "v7");
  Alcotest.(check int) "7 vars need 3 bits" 3 a.Core.Address.addr_width;
  Alcotest.(check int) "16-bit data" 16 a.Core.Address.data_width

let test_address_widths () =
  let prog n =
    Program.make
      ~vars:(List.init n (fun i -> Builder.int_var (Printf.sprintf "w%d" i)))
      "p" (Behavior.leaf "l" [])
  in
  let width n = (Core.Address.build (prog n)).Core.Address.addr_width in
  Alcotest.(check int) "1 var" 1 (width 1);
  Alcotest.(check int) "2 vars" 1 (width 2);
  Alcotest.(check int) "3 vars" 2 (width 3);
  Alcotest.(check int) "16 vars" 4 (width 16);
  Alcotest.(check int) "17 vars" 5 (width 17)

let test_address_unknown () =
  let a = Core.Address.build fig2 in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Address.address: unknown variable zz") (fun () ->
      ignore (Core.Address.address a "zz"))

(* --- Bus_plan ----------------------------------------------------------------- *)

let mem_of plan v = Core.Bus_plan.memory_of plan v

let test_plan_model1_memory () =
  let plan = Core.Bus_plan.build Core.Model.Model1 g2 part2 in
  List.iter
    (fun v -> Alcotest.(check bool) v true (mem_of plan v = Core.Bus_plan.Gmem))
    g2.Agraph.Access_graph.g_variables;
  Alcotest.(check int) "one bus" 1 (List.length plan.Core.Bus_plan.bp_buses)

let test_plan_model2_memory () =
  let plan = Core.Bus_plan.build Core.Model.Model2 g2 part2 in
  Alcotest.(check bool) "v1 local" true (mem_of plan "v1" = Core.Bus_plan.Lmem 0);
  Alcotest.(check bool) "v6 local" true (mem_of plan "v6" = Core.Bus_plan.Lmem 1);
  Alcotest.(check bool) "v4 global" true (mem_of plan "v4" = Core.Bus_plan.Gmem);
  Alcotest.(check bool) "v5 global" true (mem_of plan "v5" = Core.Bus_plan.Gmem)

let test_plan_model3_memory () =
  let plan = Core.Bus_plan.build Core.Model.Model3 g2 part2 in
  Alcotest.(check bool) "v4 homed 0" true
    (mem_of plan "v4" = Core.Bus_plan.Gmem_part 0);
  Alcotest.(check bool) "v5 homed 1" true
    (mem_of plan "v5" = Core.Bus_plan.Gmem_part 1);
  Alcotest.(check bool) "v6 local" true (mem_of plan "v6" = Core.Bus_plan.Lmem 1)

let test_plan_model4_memory () =
  let plan = Core.Bus_plan.build Core.Model.Model4 g2 part2 in
  List.iter
    (fun (v, home) ->
      Alcotest.(check bool) v true (mem_of plan v = Core.Bus_plan.Lmem home))
    [ ("v1", 0); ("v4", 0); ("v5", 1); ("v6", 1); ("v7", 1) ]

let test_plan_bus_layout_orders () =
  let roles model =
    List.map
      (fun (b : Core.Bus_plan.bus) -> b.Core.Bus_plan.bus_role)
      (Core.Bus_plan.build model g2 part2).Core.Bus_plan.bp_buses
  in
  Alcotest.(check bool) "m2 layout" true
    (roles Core.Model.Model2
    = [ Core.Bus_plan.Local 0; Core.Bus_plan.Shared_global; Core.Bus_plan.Local 1 ]);
  Alcotest.(check bool) "m3 layout" true
    (roles Core.Model.Model3
    = [
        Core.Bus_plan.Local 0;
        Core.Bus_plan.Dedicated { master = 0; mem = 0 };
        Core.Bus_plan.Dedicated { master = 0; mem = 1 };
        Core.Bus_plan.Dedicated { master = 1; mem = 1 };
        Core.Bus_plan.Dedicated { master = 1; mem = 0 };
        Core.Bus_plan.Local 1;
      ]);
  Alcotest.(check bool) "m4 layout" true
    (roles Core.Model.Model4
    = [
        Core.Bus_plan.Local 0;
        Core.Bus_plan.Chain_request 0;
        Core.Bus_plan.Chain_request 1;
        Core.Bus_plan.Chain_inter;
        Core.Bus_plan.Local 1;
      ])

let test_plan_model1_carries_everything () =
  let plan = Core.Bus_plan.build Core.Model.Model1 g2 part2 in
  let bus = List.hd plan.Core.Bus_plan.bp_buses in
  Alcotest.(check int) "all channels"
    (Agraph.Access_graph.channel_count g2)
    (List.length bus.Core.Bus_plan.bus_edges)

let test_plan_model4_chain_edges () =
  (* Cross-partition edges appear on the requester chain, the inter bus
     and the home chain. *)
  let plan = Core.Bus_plan.build Core.Model.Model4 g2 part2 in
  let edges role =
    match
      List.find_opt
        (fun (b : Core.Bus_plan.bus) ->
          Core.Bus_plan.equal_role b.Core.Bus_plan.bus_role role)
        plan.Core.Bus_plan.bp_buses
    with
    | Some b -> b.Core.Bus_plan.bus_edges
    | None -> []
  in
  let cross (e : Agraph.Access_graph.data_edge) =
    let bp =
      Option.get
        (Partitioning.Partition.part_of_behavior part2 e.Agraph.Access_graph.de_behavior)
    in
    match mem_of plan e.Agraph.Access_graph.de_variable with
    | Core.Bus_plan.Lmem h -> bp <> h
    | _ -> false
  in
  let n_cross = List.length (List.filter cross g2.Agraph.Access_graph.g_data) in
  Alcotest.(check int) "inter carries all cross" n_cross
    (List.length (edges Core.Bus_plan.Chain_inter));
  Alcotest.(check bool) "inter > 0" true (n_cross > 0)

let test_plan_bus_of_access () =
  let plan = Core.Bus_plan.build Core.Model.Model4 g2 part2 in
  Alcotest.(check bool) "local access" true
    (Core.Bus_plan.bus_of_access plan ~master:0 ~variable:"v1"
    = Core.Bus_plan.Local 0);
  Alcotest.(check bool) "remote access" true
    (Core.Bus_plan.bus_of_access plan ~master:0 ~variable:"v5"
    = Core.Bus_plan.Chain_request 0)

let test_plan_incomplete_partition_rejected () =
  (* A partition of another graph leaves fig2's objects unassigned. *)
  match
    Core.Bus_plan.build Core.Model.Model1 g2 Workloads.Smallspecs.fig1_partition
  with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the plan" true
      (String.starts_with ~prefix:"Bus_plan.build: unassigned behavior B1" msg)
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- Control_refine ----------------------------------------------------------- *)

let run_control ?force_nonleaf p part =
  let g = Agraph.Access_graph.of_program p in
  let naming = Core.Naming.of_program p in
  Core.Control_refine.run ~naming ?force_nonleaf
    ~is_object:(fun n -> List.mem n g.Agraph.Access_graph.g_objects)
    ~home_of_object:(fun n ->
      Option.get (Partitioning.Partition.part_of_behavior part n))
    p.p_top

let test_control_home_and_moved () =
  let r = run_control fig1 Workloads.Smallspecs.fig1_partition in
  Alcotest.(check int) "top home = 0" 0 r.Core.Control_refine.cr_top_home;
  Alcotest.(check (list string)) "B moved" [ "B" ]
    (List.map
       (fun m -> m.Core.Control_refine.mv_original_name)
       r.Core.Control_refine.cr_moved);
  let m = List.hd r.Core.Control_refine.cr_moved in
  Alcotest.(check int) "to partition 1" 1 m.Core.Control_refine.mv_partition;
  Alcotest.(check string) "wrapper name" "B_NEW"
    m.Core.Control_refine.mv_behavior.b_name

let test_control_ctrl_in_place () =
  let r = run_control fig1 Workloads.Smallspecs.fig1_partition in
  (* The main tree must contain B_CTRL where B used to be, and the TOC
     arcs must be retargeted. *)
  Alcotest.(check bool) "B_CTRL present" true
    (Behavior.find "B_CTRL" r.Core.Control_refine.cr_main <> None);
  Alcotest.(check bool) "B gone from main" true
    (Behavior.find "B" r.Core.Control_refine.cr_main = None);
  match r.Core.Control_refine.cr_main.b_body with
  | Seq (a :: _) ->
    let targets =
      List.filter_map
        (fun t ->
          match t.t_target with Goto g -> Some g | Complete -> None)
        a.a_transitions
    in
    Alcotest.(check (list string)) "retargeted" [ "B_CTRL"; "C" ] targets
  | _ -> Alcotest.fail "expected seq"

let test_control_signals () =
  let r = run_control fig1 Workloads.Smallspecs.fig1_partition in
  Alcotest.(check (list string)) "start/done" [ "B_start"; "B_done" ]
    (List.map (fun s -> s.s_name) r.Core.Control_refine.cr_signals)

let test_control_leaf_scheme_shape () =
  let r = run_control fig1 Workloads.Smallspecs.fig1_partition in
  let m = List.hd r.Core.Control_refine.cr_moved in
  (* Figure 4b: a single leaf with one perpetual while loop. *)
  match m.Core.Control_refine.mv_behavior.b_body with
  | Leaf [ While (_, body) ] ->
    Alcotest.(check bool) "waits for start" true
      (match body with Wait_until _ :: _ -> true | _ -> false)
  | _ -> Alcotest.fail "expected leaf wrapper with one loop"

let test_control_nonleaf_scheme_shape () =
  let r =
    run_control ~force_nonleaf:true fig1 Workloads.Smallspecs.fig1_partition
  in
  let m = List.hd r.Core.Control_refine.cr_moved in
  (* Figure 4c: a sequential wrapper with wait, body, done arms and a
     loop-back transition. *)
  match m.Core.Control_refine.mv_behavior.b_body with
  | Seq [ wait_arm; body_arm; done_arm ] ->
    Alcotest.(check string) "original inside" "B"
      body_arm.a_behavior.b_name;
    Alcotest.(check bool) "loop back" true
      (List.exists
         (fun t -> t.t_target = Goto wait_arm.a_behavior.b_name)
         done_arm.a_transitions)
  | _ -> Alcotest.fail "expected 3-arm seq wrapper"

let test_control_nothing_moves_when_together () =
  let part =
    Result.get_ok
      (Partitioning.Partition.make
         (Agraph.Access_graph.of_program fig1)
         ~n_parts:2
         [
           (Partitioning.Partition.Obj_behavior "A", 0);
           (Partitioning.Partition.Obj_behavior "B", 0);
           (Partitioning.Partition.Obj_behavior "C", 0);
           (Partitioning.Partition.Obj_variable "x", 1);
         ])
  in
  let r = run_control fig1 part in
  Alcotest.(check int) "nothing moved" 0
    (List.length r.Core.Control_refine.cr_moved);
  Alcotest.(check bool) "tree unchanged" true
    (Ast.equal_behavior r.Core.Control_refine.cr_main fig1.p_top)

let test_control_multiple_moves () =
  let r = run_control fig2 part2 in
  Alcotest.(check (list string)) "B3 B4 moved" [ "B3"; "B4" ]
    (List.map
       (fun m -> m.Core.Control_refine.mv_original_name)
       r.Core.Control_refine.cr_moved)

(* --- Data_refine ----------------------------------------------------------- *)

let dummy_bus naming =
  Core.Protocol.make_bus_signals naming ~label:"tb" ~addr_width:4 ~data_width:16

let make_ctx ?(arbiter = false) () =
  let naming = Core.Naming.of_names [] in
  let bus = dummy_bus naming in
  let arb =
    if arbiter then Some (Core.Arbiter.make naming ~bus_label:"tb" ~n:2)
    else None
  in
  let requester = Option.map (fun a -> Core.Arbiter.requester a 0) arb in
  ( bus,
    {
      Core.Data_refine.dr_naming = naming;
      dr_is_program_var = (fun x -> String.length x = 1);
      dr_ty_of = (fun _ -> TInt 16);
      dr_addr_of = (fun v -> Char.code v.[0] - Char.code 'a');
      dr_bus_of = (fun _ -> bus);
      dr_arb_of = (fun ~region:_ _ -> requester);
    } )

let refine_leaf ctx stmts =
  let b = Core.Data_refine.refine_behavior ctx ~root_region:"L" (Behavior.leaf "L" stmts) in
  match b.b_body with
  | Leaf stmts -> (b, stmts)
  | _ -> Alcotest.fail "leaf expected"

let test_data_read_becomes_receive () =
  let bus, ctx = make_ctx () in
  let b, stmts =
    refine_leaf ctx (Parser.stmts_of_string_exn "y := a + 1;")
  in
  (* y is not a program var (length 1? 'y' is length 1!) *)
  ignore b;
  ignore bus;
  ignore stmts

let test_data_read_load_and_rename () =
  let bus, ctx = make_ctx () in
  let _, stmts = refine_leaf ctx (Parser.stmts_of_string_exn "zz := a + 1;") in
  (* a is remote: expect a receive call into tmp_a, then the assignment
     using tmp_a. *)
  begin match stmts with
  | [ Call (recv, [ Arg_expr (Const (VInt 0)); Arg_var tmp ]);
      Assign ("zz", Binop (Add, Ref tmp', Const (VInt 1))) ] ->
    Alcotest.(check string) "recv proc" (Core.Protocol.mst_receive_name bus) recv;
    Alcotest.(check string) "same tmp" tmp tmp'
  | _ ->
    Alcotest.failf "unexpected shape:\n%s" (Printer.stmts_to_string stmts)
  end

let test_data_write_becomes_send () =
  let bus, ctx = make_ctx () in
  let _, stmts = refine_leaf ctx (Parser.stmts_of_string_exn "b := 7;") in
  (* The value is staged in the tmp (where booleans would be encoded) and
     then sent. *)
  match stmts with
  | [ Assign (tmp, Const (VInt 7));
      Call (send, [ Arg_expr (Const (VInt 1)); Arg_expr (Ref tmp') ]) ] ->
    Alcotest.(check string) "send proc" (Core.Protocol.mst_send_name bus) send;
    Alcotest.(check string) "staged tmp" tmp tmp'
  | _ -> Alcotest.failf "unexpected:\n%s" (Printer.stmts_to_string stmts)

let test_data_rmw () =
  let _, ctx = make_ctx () in
  let _, stmts = refine_leaf ctx (Parser.stmts_of_string_exn "a := a + 5;") in
  (* Figure 5c: receive into tmp, stage tmp + 5 back into the tmp, send. *)
  match stmts with
  | [ Call (_, [ _; Arg_var tmp ]);
      Assign (tmp2, Binop (Add, Ref tmp', Const (VInt 5)));
      Call (_, [ _; Arg_expr (Ref tmp3) ]) ] ->
    Alcotest.(check string) "tmp flows" tmp tmp';
    Alcotest.(check string) "staged" tmp2 tmp3
  | _ -> Alcotest.failf "unexpected:\n%s" (Printer.stmts_to_string stmts)

let test_data_while_reloads () =
  let _, ctx = make_ctx () in
  let _, stmts =
    refine_leaf ctx (Parser.stmts_of_string_exn "while a > 0 do zz := 1; end while;")
  in
  match stmts with
  | [ Call _; While (Binop (Gt, Ref _, _), body) ] ->
    (* The body must reload a at its end. *)
    begin match List.rev body with
    | Call (recv, _) :: _ ->
      Alcotest.(check bool) "reload at end" true
        (String.length recv > 0)
    | _ -> Alcotest.fail "no reload at end of body"
    end
  | _ -> Alcotest.failf "unexpected:\n%s" (Printer.stmts_to_string stmts)

let test_data_arbitration_brackets () =
  let _, ctx = make_ctx ~arbiter:true () in
  let _, stmts = refine_leaf ctx (Parser.stmts_of_string_exn "zz := a;") in
  (* acquire (req + wait) / receive / release (req + wait) / assign *)
  match stmts with
  | [ Signal_assign _; Wait_until _; Call _; Signal_assign _; Wait_until _;
      Assign _ ] -> ()
  | _ -> Alcotest.failf "unexpected:\n%s" (Printer.stmts_to_string stmts)

let test_data_shadowed_untouched () =
  let _, ctx = make_ctx () in
  let b =
    Core.Data_refine.refine_behavior ctx ~root_region:"L"
      (Behavior.leaf ~vars:[ Builder.int_var "a" ] "L"
         (Parser.stmts_of_string_exn "a := a + 1;"))
  in
  match b.b_body with
  | Leaf [ Assign ("a", _) ] -> ()
  | _ -> Alcotest.fail "shadowed access must stay direct"

let test_data_for_index_rejected () =
  let _, ctx = make_ctx () in
  Alcotest.check_raises "for index"
    (Core.Data_refine.Refine_error
       "for-loop index a is a partitioned variable") (fun () ->
      ignore
        (Core.Data_refine.refine_behavior ctx ~root_region:"L"
           (Behavior.leaf "L"
              (Parser.stmts_of_string_exn
                 "for a := 0 to 3 do zz := 1; end for;"))))

let test_data_out_arg_rejected () =
  let _, ctx = make_ctx () in
  match
    Core.Data_refine.refine_behavior ctx ~root_region:"L"
      (Behavior.leaf "L" [ Call ("p", [ Arg_var "a" ]) ])
  with
  | exception Core.Data_refine.Refine_error _ -> ()
  | _ -> Alcotest.fail "expected Refine_error"

let test_data_toc_loader () =
  let _, ctx = make_ctx () in
  let seq =
    Behavior.seq "S"
      [
        Behavior.arm (Behavior.leaf "X" [ Skip ])
          ~transitions:[ Builder.goto ~cond:Expr.(ref_ "a" > int 1) "Y" ];
        Behavior.arm (Behavior.leaf "Y" []);
      ]
  in
  let refined = Core.Data_refine.refine_behavior ctx ~root_region:"S" seq in
  (* The composite declares the tmp; the arm's leaf ends with the load;
     the condition references the tmp. *)
  Alcotest.(check int) "tmp declared" 1 (List.length refined.b_vars);
  let tmp = (List.hd refined.b_vars).v_name in
  match refined.b_body with
  | Seq (x :: _) ->
    begin match x.a_behavior.b_body with
    | Leaf stmts ->
      begin match List.rev stmts with
      | Call (_, [ _; Arg_var t ]) :: _ ->
        Alcotest.(check string) "loads tmp" tmp t
      | _ -> Alcotest.fail "no load at arm end"
      end
    | _ -> Alcotest.fail "leaf expected"
    end;
    begin match x.a_transitions with
    | [ { t_cond = Some (Binop (Gt, Ref t, _)); _ } ] ->
      Alcotest.(check string) "cond uses tmp" tmp t
    | _ -> Alcotest.fail "condition not rewritten"
    end
  | _ -> Alcotest.fail "seq expected"

let test_data_toc_composite_child_wrapped () =
  let _, ctx = make_ctx () in
  let inner =
    Behavior.seq "INNER" [ Behavior.arm (Behavior.leaf "Z" [ Skip ]) ]
  in
  let seq =
    Behavior.seq "S"
      [
        Behavior.arm inner
          ~transitions:[ Builder.goto ~cond:Expr.(ref_ "a" > int 1) "Y" ];
        Behavior.arm (Behavior.leaf "Y" []);
      ]
  in
  let refined = Core.Data_refine.refine_behavior ctx ~root_region:"S" seq in
  match refined.b_body with
  | Seq (x :: _) ->
    (* The composite child is wrapped in a (child; loader) sequence. *)
    Alcotest.(check string) "wrapper" "INNER_toc" x.a_behavior.b_name;
    begin match x.a_behavior.b_body with
    | Seq [ child; loader ] ->
      Alcotest.(check string) "child kept" "INNER" child.a_behavior.b_name;
      Alcotest.(check string) "loader" "INNER_toc_load"
        loader.a_behavior.b_name
    | _ -> Alcotest.fail "wrapper shape"
    end
  | _ -> Alcotest.fail "seq expected"

let test_data_wait_until_polls () =
  let _, ctx = make_ctx () in
  let _, stmts =
    refine_leaf ctx [ Wait_until Expr.(ref_ "a" = int 3) ]
  in
  match stmts with
  | [ Call _; While (Unop (Not, _), body) ] ->
    Alcotest.(check bool) "poll reloads" true
      (List.exists (function Call _ -> true | _ -> false) body)
  | _ -> Alcotest.failf "unexpected:\n%s" (Printer.stmts_to_string stmts)

(* --- Refiner (structure) ----------------------------------------------------- *)

let test_refiner_bus_bound_respected () =
  List.iter
    (fun model ->
      let r = refine fig2 part2 model in
      Alcotest.(check bool)
        (Core.Model.name model)
        true
        (List.length r.Core.Refiner.rf_buses
        <= Core.Model.max_buses model ~p:2))
    Core.Model.all

let test_refiner_model1_arbitrated () =
  let r = refine fig2 part2 Core.Model.Model1 in
  match r.Core.Refiner.rf_buses with
  | [ b ] ->
    Alcotest.(check bool) "arbiter present" true
      (b.Core.Refiner.bi_arbiter <> None);
    Alcotest.(check int) "three masters" 3
      (List.length b.Core.Refiner.bi_requesters)
  | _ -> Alcotest.fail "expected one bus"

let test_refiner_model3_gmem_ports () =
  let r = refine fig2 part2 Core.Model.Model3 in
  let prog = r.Core.Refiner.rf_program in
  (* Gmem1 (v5, v7) is accessed by both partitions: two ports = a par of
     two serving leaves. *)
  match Program.lookup_behavior prog "GMEM_1" with
  | Some b ->
    begin match b.b_body with
    | Par ports -> Alcotest.(check int) "two ports" 2 (List.length ports)
    | Leaf _ -> Alcotest.fail "expected multi-port memory"
    | Seq _ -> Alcotest.fail "unexpected seq"
    end
  | None -> Alcotest.fail "GMEM_1 missing"

let test_refiner_servers_registered () =
  List.iter
    (fun model ->
      let r = refine fig2 part2 model in
      let prog = r.Core.Refiner.rf_program in
      List.iter
        (fun name ->
          Alcotest.(check bool) name true (Program.is_server prog name))
        (r.Core.Refiner.rf_memories @ r.Core.Refiner.rf_arbiters
        @ r.Core.Refiner.rf_moved))
    Core.Model.all

let test_refiner_refined_validates () =
  List.iter
    (fun model ->
      let r = refine fig2 part2 model in
      match Program.validate r.Core.Refiner.rf_program with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "invalid: %s" (String.concat "; " msgs))
    Core.Model.all

let test_refiner_no_top_vars () =
  List.iter
    (fun model ->
      let r = refine fig2 part2 model in
      Alcotest.(check int) "no top-level vars" 0
        (List.length r.Core.Refiner.rf_program.p_vars))
    Core.Model.all

let test_refiner_initial_values_preserved () =
  (* fig2's v1 starts at 1 and v3 at 2: those initializers must move into
     the memory behaviors. *)
  let r = refine fig2 part2 Core.Model.Model1 in
  let prog = r.Core.Refiner.rf_program in
  let gmem = Option.get (Program.lookup_behavior prog "GMEM") in
  let init name =
    let d = List.find (fun v -> v.v_name = name) gmem.b_vars in
    d.v_init
  in
  Alcotest.(check bool) "v1=1" true (init "v1" = Some (VInt 1));
  Alcotest.(check bool) "v3=2" true (init "v3" = Some (VInt 2))

let test_refiner_proc_access_rejected () =
  let bad =
    Program.make
      ~vars:[ Builder.int_var "v" ]
      ~procs:[ Builder.proc "touch" [ Assign ("v", Expr.int 1) ] ]
      "bad"
      (Behavior.seq "T"
         [
           Behavior.arm (Behavior.leaf "L1" [ Call ("touch", []) ]);
           Behavior.arm (Behavior.leaf "L2" [ Assign ("v", Expr.int 2) ]);
         ])
  in
  let g = Agraph.Access_graph.of_program bad in
  let part =
    Result.get_ok
      (Partitioning.Partition.make g ~n_parts:2
         [
           (Partitioning.Partition.Obj_behavior "L1", 0);
           (Partitioning.Partition.Obj_behavior "L2", 1);
           (Partitioning.Partition.Obj_variable "v", 0);
         ])
  in
  match Core.Refiner.refine bad g part Core.Model.Model1 with
  | exception Core.Refiner.Refine_error msg ->
    Alcotest.(check bool) "mentions proc" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected Refine_error"

let test_refiner_single_partition_no_control_signals () =
  (* Everything on one component: no B_CTRL/B_NEW, only data refinement. *)
  let part =
    Partitioning.Partition.of_graph
      (Agraph.Access_graph.of_program fig1)
      ~n_parts:1 (fun _ -> 0)
  in
  let r = refine fig1 part Core.Model.Model1 in
  Alcotest.(check int) "nothing moved" 0 (List.length r.Core.Refiner.rf_moved)

(* --- rate identities (property) ----------------------------------------------- *)

(* The seven structural identities that relate the four models' bus rates
   (the paper's Figure 9 obeys them up to rounding) hold for ANY complete
   two-way partition, not just the three designs. *)
let prop_rate_identities =
  QCheck.Test.make ~count:40 ~name:"figure 9 rate identities on random partitions"
    QCheck.(make ~print:string_of_int Gen.(int_range 1 100_000))
    (fun seed ->
      let graph = Workloads.Medical.graph in
      let part =
        Workloads.Generator.random_partition ~seed graph ~n_parts:2
      in
      let env =
        Estimate.Rates.make_env Workloads.Medical.spec
          Workloads.Designs.allocation part
      in
      let rate model role =
        let plan = Core.Bus_plan.build model graph part in
        match
          List.find_opt
            (fun (b : Core.Bus_plan.bus) ->
              Core.Bus_plan.equal_role b.Core.Bus_plan.bus_role role)
            plan.Core.Bus_plan.bp_buses
        with
        | Some b -> Estimate.Rates.bus_rate_mbps env b.Core.Bus_plan.bus_edges
        | None -> 0.0
      in
      let close a b = Float.abs (a -. b) < 1e-6 *. (1.0 +. Float.abs a) in
      let m1 = rate Core.Model.Model1 Core.Bus_plan.Shared_global in
      let m2l0 = rate Core.Model.Model2 (Core.Bus_plan.Local 0) in
      let m2g = rate Core.Model.Model2 Core.Bus_plan.Shared_global in
      let m2l1 = rate Core.Model.Model2 (Core.Bus_plan.Local 1) in
      let d m g = rate Core.Model.Model3 (Core.Bus_plan.Dedicated { master = m; mem = g }) in
      let m3l0 = rate Core.Model.Model3 (Core.Bus_plan.Local 0) in
      let m3l1 = rate Core.Model.Model3 (Core.Bus_plan.Local 1) in
      let m4l0 = rate Core.Model.Model4 (Core.Bus_plan.Local 0) in
      let m4l1 = rate Core.Model.Model4 (Core.Bus_plan.Local 1) in
      let chain = rate Core.Model.Model4 Core.Bus_plan.Chain_inter in
      close m1 (m2l0 +. m2g +. m2l1)
      && close m2g (d 0 0 +. d 0 1 +. d 1 0 +. d 1 1)
      && close m2l0 m3l0 && close m2l1 m3l1
      && close m4l0 (m3l0 +. d 0 0)
      && close m4l1 (m3l1 +. d 1 1)
      && close chain (d 0 1 +. d 1 0))

(* --- bus plan against the roles x edges formulation (property) --------------- *)

(* [Bus_plan.build] files each data edge under its buses in one pass.
   The reference recomputes an edge's buses for every role from the
   plan's association list and keeps the edges whose buses include the
   role, as the plan was first specified. *)
let reference_bus_edges part (plan : Core.Bus_plan.t) g role =
  let edge_buses (e : Agraph.Access_graph.data_edge) =
    let master =
      Option.get
        (Partitioning.Partition.part_of_behavior part
           e.Agraph.Access_graph.de_behavior)
    in
    match List.assoc e.Agraph.Access_graph.de_variable plan.bp_memory_of with
    | Core.Bus_plan.Gmem -> [ Core.Bus_plan.Shared_global ]
    | Core.Bus_plan.Gmem_part mem -> [ Core.Bus_plan.Dedicated { master; mem } ]
    | Core.Bus_plan.Lmem h ->
      if master = h then [ Core.Bus_plan.Local h ]
      else
        [ Core.Bus_plan.Chain_request master; Core.Bus_plan.Chain_inter;
          Core.Bus_plan.Chain_request h ]
  in
  List.filter
    (fun e -> List.exists (Core.Bus_plan.equal_role role) (edge_buses e))
    g.Agraph.Access_graph.g_data

let prop_bus_plan_edges =
  QCheck.Test.make ~count:30
    ~name:"bus plan edges equal the roles x edges formulation"
    QCheck.(make ~print:string_of_int Gen.(int_range 1 100_000))
    (fun seed ->
      let p =
        Workloads.Generator.program
          {
            Workloads.Generator.default_config with
            Workloads.Generator.gen_seed = seed;
            gen_vars = 3 + (seed mod 10);
            gen_leaves = 4 + (seed mod 12);
            gen_par_branches = seed mod 3;
          }
      in
      let g = Agraph.Access_graph.of_program p in
      List.for_all
        (fun n_parts ->
          let part = Workloads.Generator.random_partition ~seed g ~n_parts in
          List.for_all
            (fun model ->
              let plan = Core.Bus_plan.build model g part in
              List.for_all
                (fun (b : Core.Bus_plan.bus) ->
                  b.Core.Bus_plan.bus_edges
                  = reference_bus_edges part plan g b.Core.Bus_plan.bus_role)
                plan.Core.Bus_plan.bp_buses
              && List.for_all
                   (fun (v, mem) -> Core.Bus_plan.memory_of plan v = mem)
                   plan.Core.Bus_plan.bp_memory_of)
            Core.Model.all)
        [ 2; 3 ])

(* --- Check (failure injection) ----------------------------------------------- *)

let test_check_detects_missing_arbiter () =
  let r = refine fig2 part2 Core.Model.Model1 in
  let broken =
    {
      r with
      Core.Refiner.rf_buses =
        List.map
          (fun b -> { b with Core.Refiner.bi_arbiter = None })
          r.Core.Refiner.rf_buses;
    }
  in
  match Core.Check.run ~original:fig2 broken with
  | Ok () -> Alcotest.fail "expected violation"
  | Error msgs ->
    Alcotest.(check bool) "mentions arbiter" true
      (List.exists
         (fun m ->
           let rec has i =
             i + 7 <= String.length m
             && (String.sub m i 7 = "arbiter" || has (i + 1))
           in
           has 0)
         msgs)

let test_check_detects_leftover_vars () =
  let r = refine fig2 part2 Core.Model.Model2 in
  let broken_prog =
    { r.Core.Refiner.rf_program with p_vars = [ Builder.int_var "leftover" ] }
  in
  let broken = { r with Core.Refiner.rf_program = broken_prog } in
  match Core.Check.run ~original:fig2 broken with
  | Ok () -> Alcotest.fail "expected violation"
  | Error _ -> ()

let test_check_detects_unregistered_server () =
  let r = refine fig2 part2 Core.Model.Model2 in
  let prog = r.Core.Refiner.rf_program in
  let broken_prog = { prog with p_servers = [] } in
  let broken = { r with Core.Refiner.rf_program = broken_prog } in
  match Core.Check.run ~original:fig2 broken with
  | Ok () -> Alcotest.fail "expected violation"
  | Error _ -> ()

let test_check_passes_all_models () =
  List.iter
    (fun model ->
      let r = refine fig2 part2 model in
      match Core.Check.run ~original:fig2 r with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "%s: %s" (Core.Model.name model)
                        (String.concat "; " msgs))
    Core.Model.all

(* --- Metrics ----------------------------------------------------------------- *)

let test_metrics_of_program () =
  let m = Core.Metrics.of_program Workloads.Medical.spec in
  Alcotest.(check int) "lines" (Printer.line_count Workloads.Medical.spec)
    m.Core.Metrics.m_lines;
  Alcotest.(check int) "behaviors" 21 m.Core.Metrics.m_behaviors;
  Alcotest.(check int) "variables" 14 m.Core.Metrics.m_variables

let test_metrics_growth () =
  let r = refine fig2 part2 Core.Model.Model4 in
  let growth =
    Core.Metrics.growth ~original:fig2 ~refined:r.Core.Refiner.rf_program
  in
  Alcotest.(check bool) "substantial growth" true (growth > 3.0)

let () =
  Alcotest.run "core"
    [
      ( "model",
        [
          tc "bus bounds" test_model_bus_bounds;
          tc "memory ports" test_model_ports;
          tc "of_string" test_model_of_string;
        ] );
      ( "naming",
        [
          tc "fresh" test_naming_fresh;
          tc "of_program" test_naming_of_program;
          QCheck_alcotest.to_alcotest prop_naming_fresh_naive;
        ] );
      ( "address",
        [
          tc "assignment" test_address_assignment;
          tc "widths" test_address_widths;
          tc "unknown" test_address_unknown;
        ] );
      ( "bus plan",
        [
          tc "model1 memory map" test_plan_model1_memory;
          tc "model2 memory map" test_plan_model2_memory;
          tc "model3 memory map" test_plan_model3_memory;
          tc "model4 memory map" test_plan_model4_memory;
          tc "bus layouts" test_plan_bus_layout_orders;
          tc "model1 carries all" test_plan_model1_carries_everything;
          tc "model4 chain edges" test_plan_model4_chain_edges;
          tc "bus_of_access" test_plan_bus_of_access;
          tc "incomplete rejected" test_plan_incomplete_partition_rejected;
        ] );
      ( "control refinement",
        [
          tc "home and moved" test_control_home_and_moved;
          tc "ctrl in place" test_control_ctrl_in_place;
          tc "signals" test_control_signals;
          tc "leaf scheme (4b)" test_control_leaf_scheme_shape;
          tc "non-leaf scheme (4c)" test_control_nonleaf_scheme_shape;
          tc "no move when together" test_control_nothing_moves_when_together;
          tc "multiple moves" test_control_multiple_moves;
        ] );
      ( "data refinement",
        [
          tc "local untouched" test_data_read_becomes_receive;
          tc "read -> receive" test_data_read_load_and_rename;
          tc "write -> send" test_data_write_becomes_send;
          tc "read-modify-write" test_data_rmw;
          tc "while reloads" test_data_while_reloads;
          tc "arbitration brackets" test_data_arbitration_brackets;
          tc "shadowing respected" test_data_shadowed_untouched;
          tc "for index rejected" test_data_for_index_rejected;
          tc "out arg rejected" test_data_out_arg_rejected;
          tc "TOC loader (fig 6)" test_data_toc_loader;
          tc "TOC wrapper for composite" test_data_toc_composite_child_wrapped;
          tc "wait polls" test_data_wait_until_polls;
        ] );
      ( "refiner",
        [
          tc "bus bound" test_refiner_bus_bound_respected;
          tc "model1 arbitrated" test_refiner_model1_arbitrated;
          tc "model3 gmem ports" test_refiner_model3_gmem_ports;
          tc "servers registered" test_refiner_servers_registered;
          tc "refined validates" test_refiner_refined_validates;
          tc "no top vars" test_refiner_no_top_vars;
          tc "inits preserved" test_refiner_initial_values_preserved;
          tc "proc access rejected" test_refiner_proc_access_rejected;
          tc "single partition" test_refiner_single_partition_no_control_signals;
        ] );
      ( "rate identities",
        [ QCheck_alcotest.to_alcotest prop_rate_identities ] );
      ( "bus plan edges",
        [ QCheck_alcotest.to_alcotest prop_bus_plan_edges ] );
      ( "check",
        [
          tc "missing arbiter" test_check_detects_missing_arbiter;
          tc "leftover vars" test_check_detects_leftover_vars;
          tc "unregistered server" test_check_detects_unregistered_server;
          tc "all models pass" test_check_passes_all_models;
        ] );
      ( "metrics",
        [ tc "of_program" test_metrics_of_program; tc "growth" test_metrics_growth ] );
    ]
