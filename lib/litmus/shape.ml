(** The litmus shapes: small concurrent-access specifications with an
    enumerated allowed-outcome set, each annotated with the memory-port
    ownership of its signals.

    The four classic shapes (store buffering, message passing, load
    buffering, coherence) are written directly against signals standing
    in for memory locations; the [memory] shapes are auto-instantiated
    against {!Core.Memory_gen} output — a real two-port Model3 memory
    with two bus masters — so the harness also exercises the generated
    handshake machinery, hardened and not.

    Outcome sets are enumerated against the delta-cycle baseline: under
    [sc] the kernels commit simultaneously-scheduled updates in one
    delta, which is {e stronger} than interleaving sequential
    consistency — [sh_allowed_sc] is what the sequentially-consistent
    kernel itself can produce, and [sh_allowed_weak] the additional
    vectors a weak port ordering may legally expose.  Anything else in
    the domain is forbidden; values outside the domain are corruption
    (only reachable under fault injection). *)

open Spec
open Core

type t = {
  sh_name : string;
  sh_descr : string;
  sh_program : Ast.program;
  sh_ports : (string * string) list;  (** signal name -> owning port *)
  sh_observed : string list;  (** variables read from the final values *)
  sh_domain : (string * Ast.value list) list;
      (** per observed variable: the values any legal run may leave *)
  sh_allowed_sc : Ast.value list list;
  sh_allowed_weak : Ast.value list list;
      (** additional vectors allowed under weak orderings *)
}

let port_of shape name = List.assoc_opt name shape.sh_ports

let vi n = Ast.VInt n

(* --- store buffering (SB) --------------------------------------------- *)

(* T0: x := 1; r0 := y   |   T1: y := 1; r1 := x
   Each thread waits for its own write to become visible before reading
   the other location — under the delta-cycle sc baseline both writes
   commit in the same delta, so (1,1) is the only sc outcome.  A weak
   port ordering releases the two ports one at a time, so the woken
   thread reads the other location before its release: the classic
   (0,1) / (1,0) store-buffering outcomes. *)
let store_buffering () =
  let open Builder in
  let t0 =
    Behavior.leaf "T0"
      [ "x" <== Expr.int 1;
        wait_until Expr.(ref_ "x" = int 1);
        "r0" <-- Expr.ref_ "y" ]
  in
  let t1 =
    Behavior.leaf "T1"
      [ "y" <== Expr.int 1;
        wait_until Expr.(ref_ "y" = int 1);
        "r1" <-- Expr.ref_ "x" ]
  in
  {
    sh_name = "sb";
    sh_descr = "store buffering: two threads store, then load the other port";
    sh_program =
      (* Observed registers are program-level: leaf-local frames are
         released when the tree completes, program vars stay in
         [r_final]. *)
      Program.make "litmus_sb"
        ~vars:[ int_var ~init:0 "r0"; int_var ~init:0 "r1" ]
        ~signals:[ int_signal ~init:0 "x"; int_signal ~init:0 "y" ]
        (Behavior.par "TOP" [ t0; t1 ]);
    sh_ports = [ ("x", "px"); ("y", "py") ];
    sh_observed = [ "r0"; "r1" ];
    sh_domain = [ ("r0", [ vi 0; vi 1 ]); ("r1", [ vi 0; vi 1 ]) ];
    sh_allowed_sc = [ [ vi 1; vi 1 ] ];
    sh_allowed_weak = [ [ vi 0; vi 1 ]; [ vi 1; vi 0 ]; [ vi 0; vi 0 ] ];
  }

(* --- message passing (MP) ---------------------------------------------- *)

(* T0: data := 1; flag := 1   |   T1: await flag; r := data
   Producer issues both updates in one delta — one atomic group on one
   port.  [sc] and [per-port-fifo] deliver the group whole, so the
   consumer always reads the payload; [relaxed] may tear the group and
   release the flag first, exposing r = 0. *)
let message_passing () =
  let open Builder in
  let t0 =
    Behavior.leaf "T0" [ "data" <== Expr.int 1; "flag" <== Expr.int 1 ]
  in
  let t1 =
    Behavior.leaf "T1"
      [ wait_until Expr.(ref_ "flag" = int 1); "r" <-- Expr.ref_ "data" ]
  in
  {
    sh_name = "mp";
    sh_descr = "message passing: payload and flag on one port";
    sh_program =
      Program.make "litmus_mp"
        ~vars:[ int_var ~init:0 "r" ]
        ~signals:[ int_signal ~init:0 "data"; int_signal ~init:0 "flag" ]
        (Behavior.par "TOP" [ t0; t1 ]);
    sh_ports = [ ("data", "p"); ("flag", "p") ];
    sh_observed = [ "r" ];
    sh_domain = [ ("r", [ vi 0; vi 1 ]) ];
    sh_allowed_sc = [ [ vi 1 ] ];
    sh_allowed_weak = [ [ vi 0 ] ];
  }

(* --- load buffering (LB) ------------------------------------------------ *)

(* T0: r0 := y; x := 1   |   T1: r1 := x; y := 1
   Loads precede the stores in program order and the kernels never
   speculate, so (0,0) is the only outcome under every ordering; any
   (_,1)/(1,_) vector would need a load to see a store that its own
   thread's store enabled — forbidden. *)
let load_buffering () =
  let open Builder in
  let t0 =
    Behavior.leaf "T0" [ "r0" <-- Expr.ref_ "y"; "x" <== Expr.int 1 ]
  in
  let t1 =
    Behavior.leaf "T1" [ "r1" <-- Expr.ref_ "x"; "y" <== Expr.int 1 ]
  in
  {
    sh_name = "lb";
    sh_descr = "load buffering: loads must not see unissued stores";
    sh_program =
      Program.make "litmus_lb"
        ~vars:[ int_var ~init:0 "r0"; int_var ~init:0 "r1" ]
        ~signals:[ int_signal ~init:0 "x"; int_signal ~init:0 "y" ]
        (Behavior.par "TOP" [ t0; t1 ]);
    sh_ports = [ ("x", "px"); ("y", "py") ];
    sh_observed = [ "r0"; "r1" ];
    sh_domain = [ ("r0", [ vi 0; vi 1 ]); ("r1", [ vi 0; vi 1 ]) ];
    sh_allowed_sc = [ [ vi 0; vi 0 ] ];
    sh_allowed_weak = [];
  }

(* --- coherence (CO) ----------------------------------------------------- *)

(* T0: x := 1; x := 2   |   T1: a := x (once x >= 1); b := x (once x = 2)
   Same-location order is preserved under every policy (a release never
   overtakes an earlier same-signal entry), so the observer must see
   1 then 2 — (1,2) is the only legal vector, weak or not.  Anything
   else means the port FIFO let a location's updates pass each other. *)
let coherence () =
  let open Builder in
  let t0 =
    Behavior.leaf "T0"
      [ "x" <== Expr.int 1;
        wait_until Expr.(ref_ "x" = int 1);
        "x" <== Expr.int 2 ]
  in
  let t1 =
    Behavior.leaf "T1"
      [ wait_until Expr.(ref_ "x" >= int 1);
        "a" <-- Expr.ref_ "x";
        wait_until Expr.(ref_ "x" = int 2);
        "b" <-- Expr.ref_ "x" ]
  in
  {
    sh_name = "co";
    sh_descr = "coherence: same-location updates stay ordered";
    sh_program =
      Program.make "litmus_co"
        ~vars:[ int_var ~init:0 "a"; int_var ~init:0 "b" ]
        ~signals:[ int_signal ~init:0 "x" ]
        (Behavior.par "TOP" [ t0; t1 ]);
    sh_ports = [ ("x", "p") ];
    sh_observed = [ "a"; "b" ];
    sh_domain = [ ("a", [ vi 0; vi 1; vi 2 ]); ("b", [ vi 0; vi 1; vi 2 ]) ];
    sh_allowed_sc = [ [ vi 1; vi 2 ] ];
    sh_allowed_weak = [];
  }

(* --- Model3 two-port memory, via Core.Memory_gen ----------------------- *)

(* Two masters on their own buses of a shared two-port memory: each
   writes its tag to the one mapped location, then reads it back.
   Under sc and per-port-fifo every handshake is delivered whole, so
   each master reads a really-stored tag (the races between the ports
   stay sc-consistent); under relaxed a handshake can be torn — a port
   may raise [start] before the request lines, or complete [done]
   before the data line — and masters observe stale values.  Hardened
   memories survive this: the watchdog protocol reads its own lines
   back before starting and verifies data before done, so the TMR
   memory keeps its sc classification under every ordering. *)
let memory ~harden () =
  let naming = Naming.of_names [] in
  let hcfg = Protocol.hardening naming ~harden in
  let bus label =
    Protocol.make_bus_signals naming ~label ~addr_width:1 ~data_width:8
  in
  let b0 = bus "p0" and b1 = bus "p1" in
  let storage = [ Builder.int_var ~width:8 ~init:0 "m" ] in
  let mem =
    Memory_gen.memory ?harden:hcfg ~naming ~name:"MEM" ~vars:storage
      ~addr_of:(fun _ -> 0)
      ~buses:[ b0; b1 ] ()
  in
  let master name bs tag target =
    Behavior.leaf name
      [
        Protocol.master_write bs ~addr:0 ~value:(Expr.int tag);
        Protocol.master_read bs ~addr:0 ~target;
      ]
  in
  let program =
    Program.make
      (if harden then "litmus_mem_tmr" else "litmus_mem")
      ~vars:
        [
          Builder.int_var ~width:8 ~init:0 "r0";
          Builder.int_var ~width:8 ~init:0 "r1";
        ]
      ~signals:
        (Protocol.signal_decls b0 @ Protocol.signal_decls b1
        @ Protocol.tick_signals hcfg)
      ~procs:
        (Protocol.mst_procs ?harden:hcfg b0
        @ Protocol.mst_procs ?harden:hcfg b1)
      ~servers:[ "MEM" ]
      (Behavior.par "TOP" [ master "M0" b0 1 "r0"; master "M1" b1 2 "r1"; mem ])
  in
  let port bs =
    List.map
      (fun s -> (s, bs.Protocol.bs_label))
      [
        bs.Protocol.bs_start; bs.Protocol.bs_done; bs.Protocol.bs_rd;
        bs.Protocol.bs_wr; bs.Protocol.bs_addr; bs.Protocol.bs_data;
      ]
  in
  let dom = [ vi 0; vi 1; vi 2 ] in
  (* Both masters hit the same location, so even sc races: a master may
     read its own tag or the other's, but never a vector claiming both
     storage orders at once — (2,1) needs m=2 before M0's read AND m=1
     before M1's, i.e. each write before the other. *)
  let allowed_sc = [ [ vi 1; vi 2 ]; [ vi 1; vi 1 ]; [ vi 2; vi 2 ] ] in
  let allowed_weak =
    (* Torn handshakes lose writes or latch stale lines: anything in
       the domain except the sc set and the contradictory (2,1). *)
    List.filter
      (fun v ->
        (not (List.mem v allowed_sc)) && v <> [ vi 2; vi 1 ])
      (List.concat_map (fun a -> List.map (fun b -> [ a; b ]) dom) dom)
  in
  {
    sh_name = (if harden then "mem-tmr" else "mem");
    sh_descr =
      (if harden then
         "hardened (TMR + watchdog) two-port Model3 memory, two masters"
       else "two-port Model3 memory, two masters, write-then-read");
    sh_program = program;
    sh_ports = port b0 @ port b1;
    sh_observed = [ "r0"; "r1" ];
    sh_domain = [ ("r0", dom); ("r1", dom) ];
    sh_allowed_sc = allowed_sc;
    sh_allowed_weak = allowed_weak;
  }

let all () =
  [
    store_buffering ();
    message_passing ();
    load_buffering ();
    coherence ();
    memory ~harden:false ();
    memory ~harden:true ();
  ]

let find name = List.find_opt (fun s -> String.equal s.sh_name name) (all ())
