(** The litmus matrix: shapes × orderings × seeds × optional fault
    plans, run on both kernels, with deterministic text/JSON reports
    and RACE003 evidence for the lint registry. *)

open Spec

type config = {
  cf_shapes : Shape.t list;
  cf_orderings : Sim.Memord.policy list;
  cf_seeds : int;  (** seeds 1..N per weak ordering; sc runs once *)
  cf_faults : bool;  (** also run the canned per-shape fault plans *)
}

let default_config () =
  {
    cf_shapes = Shape.all ();
    cf_orderings =
      [
        Sim.Memord.Sc;
        Sim.Memord.Per_port_fifo;
        Sim.Memord.Relaxed Sim.Memord.default_window;
      ];
    cf_seeds = 4;
    cf_faults = false;
  }

type entry = {
  en_shape : string;
  en_ordering : string;
  en_seed : int;
  en_fault : string option;  (** {!Faults.Fault.describe} of the plan *)
  en_verdict : Classify.verdict;
  en_observed : (string * string) list;
  en_kernels_agree : bool;
      (** Engine and Reference produced the same verdict and vector *)
  en_diverted : int;
  en_reordered : int;
  en_deltas : int;
}

type report = {
  rp_entries : entry list;
  rp_sc_consistent : int;
  rp_weak_allowed : int;
  rp_forbidden : int;
  rp_deadlock : int;
  rp_corruption : int;
  rp_kernel_mismatches : int;
}

(* Canned fault plans: a late bit flip pushing an observed register out
   of the shape's domain (corruption demo), and a dropped first update
   on a port signal — a lost handshake edge (deadlock demo on the
   unhardened shapes; the hardened memory's watchdog retries it). *)
let fault_plans (shape : Shape.t) =
  let obs = List.hd shape.Shape.sh_observed in
  let sig0 = fst (List.hd shape.Shape.sh_ports) in
  [
    [ Faults.Fault.Flip_bit { fl_var = obs; fl_bit = 2; fl_delta = 2 } ];
    [ Faults.Fault.Drop_update { du_signal = sig0; du_occurrence = 1 } ];
  ]

let value_string = function
  | Ast.VInt n -> string_of_int n
  | Ast.VBool b -> if b then "true" else "false"

let entry_of ~fault (shape : Shape.t) ~ordering ~seed =
  let faults = Option.value fault ~default:[] in
  let eng = Run.run ~kernel:`Engine ~faults ~ordering ~seed shape in
  let ref_ = Run.run ~kernel:`Reference ~faults ~ordering ~seed shape in
  let agree =
    eng.Run.o_verdict = ref_.Run.o_verdict
    && eng.Run.o_observed = ref_.Run.o_observed
  in
  {
    en_shape = shape.Shape.sh_name;
    en_ordering = Sim.Memord.policy_to_string ordering;
    en_seed = seed;
    en_fault =
      Option.map
        (fun fs -> String.concat "; " (List.map Faults.Fault.describe fs))
        fault;
    en_verdict = eng.Run.o_verdict;
    en_observed =
      List.map
        (fun (x, v) ->
          (x, match v with Some v -> value_string v | None -> "?"))
        eng.Run.o_observed;
    en_kernels_agree = agree;
    en_diverted = eng.Run.o_diverted;
    en_reordered = eng.Run.o_reordered;
    en_deltas = eng.Run.o_result.Sim.Engine.r_deltas;
  }

let seeds_for ordering n =
  match ordering with
  | Sim.Memord.Sc -> [ 0 ]  (* no scheduler: one run covers it *)
  | _ -> List.init (max 1 n) (fun i -> i + 1)

let run (cfg : config) =
  let entries =
    List.concat_map
      (fun shape ->
        let plans =
          if cfg.cf_faults then None :: List.map Option.some (fault_plans shape)
          else [ None ]
        in
        List.concat_map
          (fun fault ->
            List.concat_map
              (fun ordering ->
                List.map
                  (fun seed -> entry_of ~fault shape ~ordering ~seed)
                  (seeds_for ordering cfg.cf_seeds))
              cfg.cf_orderings)
          plans)
      cfg.cf_shapes
  in
  let count v =
    List.length (List.filter (fun e -> e.en_verdict = v) entries)
  in
  {
    rp_entries = entries;
    rp_sc_consistent = count Classify.Sc_consistent;
    rp_weak_allowed = count Classify.Weak_allowed;
    rp_forbidden = count Classify.Forbidden;
    rp_deadlock = count Classify.Deadlock;
    rp_corruption = count Classify.Corruption;
    rp_kernel_mismatches =
      List.length (List.filter (fun e -> not e.en_kernels_agree) entries);
  }

(* --- RACE003 evidence --------------------------------------------------- *)

(* A shape whose fault-free runs are sc-consistent under sc but
   weak-allowed under some weak ordering is a racy access pattern whose
   outcome depends on port ordering — exactly what refined designs
   silently assume away.  Built here (litmus has the evidence) with the
   registry's code/pass spelling so [Registry.code_table] documents it. *)
let race003_code = "RACE003"

let race_diagnostics (rp : report) =
  let no_fault = List.filter (fun e -> e.en_fault = None) rp.rp_entries in
  let shapes =
    List.sort_uniq String.compare (List.map (fun e -> e.en_shape) no_fault)
  in
  List.filter_map
    (fun shape ->
      let mine = List.filter (fun e -> e.en_shape = shape) no_fault in
      let sc_ok =
        List.for_all
          (fun e ->
            e.en_ordering <> "sc" || e.en_verdict = Classify.Sc_consistent)
          mine
      in
      let weak =
        List.filter (fun e -> e.en_verdict = Classify.Weak_allowed) mine
      in
      match (sc_ok, weak) with
      | true, w :: _ ->
        Some
          (Diagnostic.makef ~code:race003_code ~severity:Diagnostic.Warning
             ~pass:"race" ~loc:shape
             "racy access in shape %s: outcome {%s} appears under %s \
              ordering (seed %d) but is unreachable under sc"
             shape
             (String.concat ", "
                (List.map (fun (x, v) -> x ^ "=" ^ v) w.en_observed))
             w.en_ordering w.en_seed)
      | _ -> None)
    shapes

(* --- reports ------------------------------------------------------------ *)

let to_text (rp : report) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-8s %-14s seed=%d %-14s {%s}%s%s\n" e.en_shape
           e.en_ordering e.en_seed
           (Classify.to_string e.en_verdict)
           (String.concat ", "
              (List.map (fun (x, v) -> x ^ "=" ^ v) e.en_observed))
           (match e.en_fault with None -> "" | Some f -> " fault: " ^ f)
           (if e.en_kernels_agree then "" else " KERNEL-MISMATCH")))
    rp.rp_entries;
  Buffer.add_string buf
    (Printf.sprintf
       "total %d: %d sc-consistent, %d weak-allowed, %d forbidden, %d \
        deadlock, %d corruption; %d kernel mismatches\n"
       (List.length rp.rp_entries)
       rp.rp_sc_consistent rp.rp_weak_allowed rp.rp_forbidden rp.rp_deadlock
       rp.rp_corruption rp.rp_kernel_mismatches);
  List.iter
    (fun d ->
      Buffer.add_string buf (Diagnostic.to_string d);
      Buffer.add_char buf '\n')
    (race_diagnostics rp);
  Buffer.contents buf

let to_json (rp : report) =
  let open Json in
  let entry e =
    Obj
      [
        ("shape", String e.en_shape);
        ("ordering", String e.en_ordering);
        ("seed", Int e.en_seed);
        ("fault", match e.en_fault with None -> Null | Some f -> String f);
        ("verdict", String (Classify.to_string e.en_verdict));
        ( "observed",
          Obj (List.map (fun (x, v) -> (x, String v)) e.en_observed) );
        ("kernels_agree", Bool e.en_kernels_agree);
        ("diverted", Int e.en_diverted);
        ("reordered", Int e.en_reordered);
        ("deltas", Int e.en_deltas);
      ]
  in
  let summary =
    Obj
      [
        ("sc_consistent", Int rp.rp_sc_consistent);
        ("weak_allowed", Int rp.rp_weak_allowed);
        ("forbidden", Int rp.rp_forbidden);
        ("deadlock", Int rp.rp_deadlock);
        ("corruption", Int rp.rp_corruption);
        ("kernel_mismatches", Int rp.rp_kernel_mismatches);
      ]
  in
  to_string
    (Obj
       [
         ("schema", String "coref-litmus-1");
         ("entries", List (List.map entry rp.rp_entries));
         ("summary", summary);
         ("race", List (List.map Diagnostic.to_json (race_diagnostics rp)));
       ])
  ^ "\n"
