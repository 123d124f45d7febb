open Spec
open Spec.Ast

type options = {
  force_nonleaf : bool;
  protocol : Protocol.style;
  harden : bool;
}

let default_options =
  { force_nonleaf = false; protocol = Protocol.Four_phase; harden = false }

type bus_inst = {
  bi_role : Bus_plan.bus_role;
  bi_signals : Protocol.bus_signals;
  bi_requesters : (string * int) list;
  bi_arbiter : Arbiter.t option;
}

(* The refined program's name-resolution and type verdict.  [refine]
   validates the program it builds and raises on any error, so the
   name part is empty; the type part is computed on first use.  An
   [Atomic] rather than a [Lazy]: explore forces it from [Pool]
   workers, and two domains may race to fill it with equal values. *)
type verdict = {
  vd_program : program;  (** the program the verdict belongs to *)
  vd_types : Diagnostic.t list option Atomic.t;
}

type t = {
  rf_program : program;
  rf_verdict : verdict;
  rf_model : Model.t;
  rf_plan : Bus_plan.t;
  rf_buses : bus_inst list;
  rf_memories : string list;
  rf_arbiters : string list;
  rf_moved : string list;
  rf_top_home : int;
  rf_processes : (string * int) list;
      (** every concurrent process (main tree and B_NEW wrappers) with its
          partition *)
  rf_harden : Protocol.harden_cfg option;
      (** the watchdog configuration when the design was hardened *)
}

exception Refine_error of string

let refine_error fmt = Printf.ksprintf (fun s -> raise (Refine_error s)) fmt

(* A concurrent process of the refined design: the main control tree of
   the top-home component, or one B_NEW wrapper. *)
type process = {
  ps_name : string;
  ps_partition : int;
  ps_behavior : behavior;
  ps_server : bool;
}

(* The sequential regions of a behavior tree and the partitioned
   variables each accesses.  A region is a maximal Par-free subtree:
   every child of a parallel composition starts its own region (named
   after that child), because its leaves run concurrently with its
   siblings' and need their own bus grant.  TOC-condition reads belong to
   the region of the enclosing sequential composition.  Local
   declarations shadow partitioned variables for their subtree. *)
let regions_of is_program_var (root : behavior) =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let ensure region =
    match Hashtbl.find_opt tbl region with
    | Some cell -> cell
    | None ->
      let cell = (ref [], ref Names.Set.empty) in
      Hashtbl.add tbl region cell;
      order := region :: !order;
      cell
  in
  let note region shadowed x =
    if is_program_var x && not (Names.Set.mem x shadowed) then begin
      let vars, seen = ensure region in
      if not (Names.Set.mem x !seen) then begin
        vars := x :: !vars;
        seen := Names.Set.add x !seen
      end
    end
  in
  let rec walk region shadowed b =
    let shadowed =
      List.fold_left (fun s v -> Names.Set.add v.v_name s) shadowed b.b_vars
    in
    ignore (ensure region);
    match b.b_body with
    | Leaf stmts ->
      List.iter (note region shadowed) (Stmt.reads stmts);
      List.iter (note region shadowed) (Stmt.writes stmts)
    | Seq arms ->
      List.iter
        (fun a ->
          List.iter
            (fun t ->
              match t.t_cond with
              | Some c -> List.iter (note region shadowed) (Expr.refs c)
              | None -> ())
            a.a_transitions;
          walk region shadowed a.a_behavior)
        arms
    | Par children -> List.iter (fun c -> walk c.b_name shadowed c) children
  in
  walk root.b_name Names.Set.empty root;
  List.rev_map (fun r -> (r, List.rev !(fst (Hashtbl.find tbl r)))) !order

(* Reject specifications whose user procedures touch partitioned
   variables: the procedure body is shared between call sites that may
   live on different components, so there is no single bus to route the
   access through. *)
let check_procs is_program_var p =
  List.iter
    (fun pr ->
      let local_names =
        Names.Set.of_list
          (List.map (fun prm -> prm.prm_name) pr.prc_params
          @ List.map (fun v -> v.v_name) pr.prc_vars)
      in
      let touched =
        List.filter
          (fun x -> is_program_var x && not (Names.Set.mem x local_names))
          (Stmt.reads pr.prc_body @ Stmt.writes pr.prc_body)
      in
      match touched with
      | [] -> ()
      | x :: _ ->
        refine_error "procedure %s accesses partitioned variable %s"
          pr.prc_name x)
    p.p_procs

let refine ?(options = default_options) p g part model =
  begin match Program.validate p with
  | Ok () -> ()
  | Error msgs ->
    refine_error "input specification is invalid: %s" (String.concat "; " msgs)
  end;
  (* Per-refinement tables: every lookup on a program variable, its
     declaration or its address is one map query. *)
  let decls =
    Names.bind (List.map (fun v -> (v.v_name, v)) p.p_vars) Names.Map.empty
  in
  let is_program_var x = Names.Map.mem x decls in
  check_procs is_program_var p;
  let objects = Names.Set.of_list g.Agraph.Access_graph.g_objects in
  let is_object name = Names.Set.mem name objects in
  let home_of_object name =
    match Partitioning.Partition.part_of_behavior part name with
    | Some i -> i
    | None -> refine_error "object behavior %s is not assigned" name
  in
  (* TOC conditions are re-evaluated by the home partition of their
     sequential composition (that is where the refined loader runs); when
     that differs from a variable's home, the variable must live in a
     globally reachable memory, so the bus plan is told about these extra
     readers. *)
  let extra_readers =
    let acc = ref [] in
    let rec walk shadowed b =
      let shadowed =
        List.fold_left (fun s v -> Names.Set.add v.v_name s) shadowed b.b_vars
      in
      begin match b.b_body with
      | Seq arms ->
        let reader = Control_refine.home ~is_object ~home_of:home_of_object b in
        begin match reader with
        | None -> ()
        | Some reader ->
          List.iter
            (fun a ->
              List.iter
                (fun t ->
                  match t.t_cond with
                  | Some c ->
                    List.iter
                      (fun x ->
                        if
                          is_program_var x && not (Names.Set.mem x shadowed)
                        then acc := (x, reader) :: !acc)
                      (Expr.refs c)
                  | None -> ())
                a.a_transitions)
            arms
        end
      | Leaf _ | Par _ -> ()
      end;
      List.iter (walk shadowed) (Behavior.children b)
    in
    walk Names.Set.empty p.p_top;
    List.sort_uniq compare !acc
  in
  let plan = Bus_plan.build ~extra_readers model g part in
  let address = Address.build p in
  let addresses = Names.bind address.Address.addr_of Names.Map.empty in
  let addr_of v =
    match Names.Map.find_opt v addresses with
    | Some a -> a
    | None -> Address.address address v
  in
  let naming = Naming.of_program p in
  let n_parts = Partitioning.Partition.n_parts part in
  let hcfg = Protocol.hardening naming ~harden:options.harden in

  (* 1. Control-related refinement: distribute the behavior tree. *)
  let ctrl =
    Control_refine.run ~naming ~force_nonleaf:options.force_nonleaf
      ?harden:hcfg ~is_object ~home_of_object p.p_top
  in
  let processes =
    {
      ps_name = ctrl.Control_refine.cr_main.b_name;
      ps_partition = ctrl.Control_refine.cr_top_home;
      ps_behavior = ctrl.Control_refine.cr_main;
      ps_server = false;
    }
    :: List.map
         (fun (m : Control_refine.moved) ->
           {
             ps_name = m.Control_refine.mv_behavior.b_name;
             ps_partition = m.Control_refine.mv_partition;
             ps_behavior = m.Control_refine.mv_behavior;
             ps_server = true;
           })
         ctrl.Control_refine.cr_moved
  in

  (* 2. Which sequential region masters which bus.  Regions, not whole
     processes, are the arbitration grain: two parallel branches inside
     one component must each hold their own request/acknowledge pair. *)
  let accesses =
    List.concat_map
      (fun ps ->
        List.map
          (fun (region, vars) ->
            ( region,
              ps.ps_partition,
              List.map
                (fun v ->
                  ( v,
                    Bus_plan.bus_of_access plan ~master:ps.ps_partition
                      ~variable:v ))
                vars ))
          (regions_of is_program_var ps.ps_behavior))
      processes
  in
  let masters_of role =
    List.filter_map
      (fun (region, _, vbs) ->
        if List.exists (fun (_, r) -> Bus_plan.equal_role r role) vbs then
          Some region
        else None)
      accesses
  in
  (* Model4 plumbing: partitions with outgoing remote traffic master the
     inter bus through their outbound interface; their home partitions
     serve inbound traffic. *)
  let outgoing_partitions =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, partition, vbs) ->
           if
             List.exists
               (fun (_, r) ->
                 match r with
                 | Bus_plan.Chain_request _ -> true
                 | Bus_plan.Shared_global | Bus_plan.Local _
                 | Bus_plan.Dedicated _ | Bus_plan.Chain_inter -> false)
               vbs
           then [ partition ]
           else [])
         accesses)
  in
  let inbound_partitions =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, _, vbs) ->
           List.filter_map
             (fun (v, r) ->
               match r with
               | Bus_plan.Chain_request _ ->
                 begin match Bus_plan.memory_of plan v with
                 | Bus_plan.Lmem h -> Some h
                 | Bus_plan.Gmem | Bus_plan.Gmem_part _ -> None
                 end
               | Bus_plan.Shared_global | Bus_plan.Local _
               | Bus_plan.Dedicated _ | Bus_plan.Chain_inter -> None)
             vbs)
         accesses)
  in
  let bif_out_name i = Printf.sprintf "BIF_out_master_%d" i in
  let inter_masters = List.map bif_out_name outgoing_partitions in

  (* 3. Instantiate buses (only those with masters) with their signals and
     arbiters. *)
  let instantiate (bus : Bus_plan.bus) =
    let role = bus.Bus_plan.bus_role in
    let masters =
      match role with
      | Bus_plan.Chain_inter -> inter_masters
      | _ -> masters_of role
    in
    if masters = [] then None
    else begin
      let label = "bus_" ^ Bus_plan.role_label role in
      let signals =
        Protocol.make_bus_signals naming ~label
          ~addr_width:address.Address.addr_width
          ~data_width:address.Address.data_width
      in
      let arbiter =
        if List.length masters >= 2 then
          Some (Arbiter.make naming ~bus_label:label ~n:(List.length masters))
        else None
      in
      Some
        {
          bi_role = role;
          bi_signals = signals;
          bi_requesters = List.mapi (fun i m -> (m, i)) masters;
          bi_arbiter = arbiter;
        }
    end
  in
  let buses = List.filter_map instantiate plan.Bus_plan.bp_buses in
  let find_bus role =
    List.find_opt (fun b -> Bus_plan.equal_role b.bi_role role) buses
  in
  let bus_exn role =
    match find_bus role with
    | Some b -> b
    | None ->
      refine_error "internal: bus %s was not instantiated"
        (Bus_plan.role_label role)
  in
  (* Every arbitrated bus's requesters by master name (the first entry
     of a name wins), so an access finds its requester in one lookup
     however many masters share the bus. *)
  let requesters = Hashtbl.create 8 in
  List.iter
    (fun bi ->
      match bi.bi_arbiter with
      | None -> ()
      | Some arb ->
        let by_name = Hashtbl.create 8 in
        List.iter
          (fun (name, i) ->
            if not (Hashtbl.mem by_name name) then
              Hashtbl.add by_name name (Arbiter.requester arb i))
          bi.bi_requesters;
        Hashtbl.replace requesters bi.bi_signals.Protocol.bs_label by_name)
    buses;
  let requester_for bi name =
    let label = bi.bi_signals.Protocol.bs_label in
    match Hashtbl.find_opt requesters label with
    | None -> None
    | Some by_name ->
      begin match Hashtbl.find_opt by_name name with
      | Some r -> Some r
      | None ->
        refine_error "internal: process %s is not a master of bus %s" name
          label
      end
  in

  (* 4. Data-related refinement of every process. *)
  let lookup_var v =
    match Names.Map.find_opt v decls with
    | Some d -> d
    | None -> refine_error "internal: unknown variable %s" v
  in
  let refine_process ps =
    (* Per-process memo: the bus of a variable is fixed for the whole
       process. *)
    let buses_of = Hashtbl.create 16 in
    let bus_of v =
      match Hashtbl.find_opt buses_of v with
      | Some bi -> bi
      | None ->
        let bi =
          bus_exn
            (Bus_plan.bus_of_access plan ~master:ps.ps_partition ~variable:v)
        in
        Hashtbl.add buses_of v bi;
        bi
    in
    let ctx =
      {
        Data_refine.dr_naming = naming;
        dr_is_program_var = is_program_var;
        dr_ty_of = (fun v -> (lookup_var v).v_ty);
        dr_addr_of = addr_of;
        dr_bus_of = (fun v -> (bus_of v).bi_signals);
        dr_arb_of = (fun ~region v -> requester_for (bus_of v) region);
      }
    in
    {
      ps with
      ps_behavior =
        Data_refine.refine_behavior ctx
          ~root_region:ps.ps_behavior.b_name ps.ps_behavior;
    }
  in
  let processes = List.map refine_process processes in

  (* 5. Memories.  Boolean variables are stored bus-encoded (int<1>,
     1/0), matching the integer data bus the masters use. *)
  let decl_of v =
    let d = lookup_var v in
    match d.v_ty with
    | TBool ->
      let init =
        match d.v_init with
        | Some (VBool true) -> Some (VInt 1)
        | Some (VBool false) | None -> Some (VInt 0)
        | Some (VInt _) as i -> i
      in
      { d with v_ty = TInt 1; v_init = init }
    | TInt _ | TArray _ -> d
  in
  let memories = ref [] in
  let add_memory b =
    memories := b :: !memories;
    b.b_name
  in
  let mem_names =
    List.filter_map
      (fun mem ->
        let vars = List.map decl_of (Bus_plan.vars_of_memory plan mem) in
        if vars = [] then None
        else
          match mem with
          | Bus_plan.Gmem ->
            let port =
              match find_bus Bus_plan.Shared_global with
              | Some bi -> [ bi.bi_signals ]
              | None -> []
            in
            Some
              (add_memory
                 (Memory_gen.memory ~style:options.protocol ?harden:hcfg
                    ~naming
                    ~name:(Naming.fresh naming "GMEM")
                    ~vars ~addr_of ~buses:port ()))
          | Bus_plan.Gmem_part gp ->
            let ports =
              List.filter_map
                (fun bi ->
                  match bi.bi_role with
                  | Bus_plan.Dedicated { mem = m; _ } when m = gp ->
                    Some bi.bi_signals
                  | _ -> None)
                buses
            in
            Some
              (add_memory
                 (Memory_gen.memory ~style:options.protocol ?harden:hcfg
                    ~naming
                    ~name:(Naming.fresh naming (Printf.sprintf "GMEM_%d" gp))
                    ~vars ~addr_of ~buses:ports ()))
          | Bus_plan.Lmem h when model = Model.Model4 ->
            (* Handled below: Model4 local memories live inside the
               per-partition memory subsystems. *)
            ignore h;
            None
          | Bus_plan.Lmem h ->
            let port =
              match find_bus (Bus_plan.Local h) with
              | Some bi -> [ bi.bi_signals ]
              | None -> []
            in
            Some
              (add_memory
                 (Memory_gen.memory ~style:options.protocol ?harden:hcfg
                    ~naming
                    ~name:(Naming.fresh naming (Printf.sprintf "LMEM_%d" h))
                    ~vars ~addr_of ~buses:port ())))
      (Bus_plan.memories plan)
  in
  let memsys_names =
    if model <> Model.Model4 then []
    else
      List.filter_map
        (fun i ->
          let vars =
            List.map decl_of (Bus_plan.vars_of_memory plan (Bus_plan.Lmem i))
          in
          let local_bus =
            Option.map (fun b -> b.bi_signals) (find_bus (Bus_plan.Local i))
          in
          let request_bus =
            Option.map
              (fun b -> b.bi_signals)
              (find_bus (Bus_plan.Chain_request i))
          in
          let inter = find_bus Bus_plan.Chain_inter in
          if vars = [] && local_bus = None && request_bus = None then None
          else begin
            let inter_requester =
              match (request_bus, inter) with
              | Some _, Some bi -> requester_for bi (bif_out_name i)
              | _ -> None
            in
            let cfg =
              {
                Bus_interface.bif_partition = i;
                bif_vars = vars;
                bif_addr_of = addr_of;
                bif_local_bus = local_bus;
                bif_request_bus = request_bus;
                bif_inter_bus = Option.map (fun b -> b.bi_signals) inter;
                bif_inter_requester = inter_requester;
                bif_serves_inbound = List.mem i inbound_partitions;
              }
            in
            Some
              (add_memory
                 (Bus_interface.memsys ~style:options.protocol ?harden:hcfg
                    ~naming cfg))
          end)
        (List.init n_parts Fun.id)
  in
  let memory_behaviors = List.rev !memories in

  (* 6. Arbiters. *)
  let arbiter_behaviors =
    List.filter_map (fun bi -> Option.map Arbiter.behavior bi.bi_arbiter) buses
  in

  (* 7. Assemble the refined program. *)
  let components =
    List.filter_map
      (fun i ->
        match List.filter (fun ps -> ps.ps_partition = i) processes with
        | [] -> None
        | [ ps ] -> Some ps.ps_behavior
        | many ->
          let name = Naming.fresh naming (Printf.sprintf "COMP_%d" i) in
          Some (Behavior.par name (List.map (fun ps -> ps.ps_behavior) many)))
      (List.init n_parts Fun.id)
  in
  let top_name = Naming.fresh naming "SYSTEM" in
  let top =
    Behavior.par top_name (components @ memory_behaviors @ arbiter_behaviors)
  in
  let bus_signal_decls =
    List.concat_map (fun bi -> Protocol.signal_decls bi.bi_signals) buses
  in
  let arb_signal_decls =
    List.concat_map
      (fun bi ->
        match bi.bi_arbiter with
        | Some arb -> Arbiter.signal_decls arb
        | None -> [])
      buses
  in
  let protocol_procs =
    List.concat_map
      (fun bi ->
        Protocol.mst_procs ~style:options.protocol ?harden:hcfg bi.bi_signals)
      buses
  in
  let servers =
    p.p_servers
    @ List.filter_map (fun ps -> if ps.ps_server then Some ps.ps_name else None)
        processes
    @ mem_names @ memsys_names
    @ List.map (fun b -> b.b_name) arbiter_behaviors
  in
  let refined =
    {
      p_name = p.p_name ^ "_" ^ String.lowercase_ascii (Model.name model);
      p_vars = [];
      p_signals =
        p.p_signals @ ctrl.Control_refine.cr_signals @ bus_signal_decls
        @ arb_signal_decls @ Protocol.tick_signals hcfg;
      p_procs = p.p_procs @ protocol_procs;
      p_top = top;
      p_servers = servers;
    }
  in
  begin match Program.validate refined with
  | Ok () -> ()
  | Error msgs ->
    refine_error "refined specification is invalid (refiner bug): %s"
      (String.concat "; " msgs)
  end;
  {
    rf_program = refined;
    rf_verdict = { vd_program = refined; vd_types = Atomic.make None };
    rf_model = model;
    rf_plan = plan;
    rf_buses = buses;
    rf_memories = mem_names @ memsys_names;
    rf_arbiters = List.map (fun b -> b.b_name) arbiter_behaviors;
    rf_moved =
      List.filter_map (fun ps -> if ps.ps_server then Some ps.ps_name else None)
        processes;
    rf_top_home = ctrl.Control_refine.cr_top_home;
    rf_processes = List.map (fun ps -> (ps.ps_name, ps.ps_partition)) processes;
    rf_harden = hcfg;
  }

let name_errors p =
  match Program.validate p with
  | Ok () -> []
  | Error msgs ->
    List.map
      (fun m ->
        Diagnostic.make ~code:"NAME001" ~severity:Diagnostic.Error
          ~pass:"validate" m)
      msgs

let verdict r =
  let p = r.rf_program and vd = r.rf_verdict in
  if p != vd.vd_program then Typecheck.diagnostics p @ name_errors p
  else
    match Atomic.get vd.vd_types with
    | Some types -> types
    | None ->
      let types = Typecheck.diagnostics p in
      Atomic.set vd.vd_types (Some types);
      types
