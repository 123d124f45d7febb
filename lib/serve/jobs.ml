(** Job execution; see the interface. *)

type outcome = {
  o_output : string;
  o_meta : (string * Protocol.json) list;
}

let cancelled_message = Command.cancelled

let ( let* ) = Result.bind

let check_poll poll = if poll () then Error cancelled_message else Ok ()

(* --- decoding a job into a command request ------------------------------- *)

let all_ok rs =
  List.fold_right
    (fun r acc ->
      let* x = r in
      let* xs = acc in
      Ok (x :: xs))
    rs (Ok [])

(* A string field read through [parse]; [default] when absent. *)
let named ~default key parse j =
  match Protocol.member key j with
  | None -> Ok default
  | Some _ ->
    let* s = Protocol.string_field key j in
    parse s

let named_list ~default key parse j =
  match Protocol.member key j with
  | None -> Ok default
  | Some _ ->
    let* names = Protocol.string_list_field key j in
    all_ok (List.map parse names)

let int_list_field ~default key j =
  match Protocol.member key j with
  | None -> Ok default
  | Some (Protocol.List xs) ->
    all_ok
      (List.map
         (function
           | Protocol.Int n -> Ok n
           | _ -> Error (Printf.sprintf "field %S must hold integers" key))
         xs)
  | Some _ -> Error (Printf.sprintf "field %S must be an array" key)

let json_field j = Protocol.bool_field ~default:false "json" j

let design j =
  let d = Command.default_design in
  let p = d.Command.partitioning in
  let* model = named ~default:d.model "model" Command.model_of_string j in
  let* parts = Protocol.int_field ~default:p.parts "parts" j in
  let* algo =
    named ~default:p.algo "algo" (Command.lookup ~what:"algo" Command.algos) j
  in
  let* seed = Protocol.int_field ~default:p.seed "seed" j in
  let* protocol =
    named ~default:d.protocol "protocol"
      (Command.lookup ~what:"protocol" Command.protocols)
      j
  in
  let* harden = Protocol.bool_field ~default:d.harden "harden" j in
  let assign =
    match Protocol.member "assign" j with
    | Some (Protocol.String s) -> Some s
    | _ -> None
  in
  Ok
    { Command.partitioning = { parts; algo; seed; assign }; model; protocol;
      harden }

let lint_request j =
  let r = Command.Lint.default_report in
  let* codes = Protocol.string_list_field ~default:[] "codes" j in
  let* fix = Protocol.bool_field ~default:false "fix" j in
  if fix then
    (* A served fix always answers with the JSON rewrite report, so
       [json] is one more knob that does not apply. *)
    let given =
      List.filter
        (fun k -> Option.is_some (Protocol.member k j))
        [ "severity"; "phase"; "overrides"; "json"; "flow" ]
    in
    Command.Lint.fix ~codes ~given ~json:true
  else
    let* severity =
      named ~default:r.severity "severity" Command.severity_of_string j
    in
    let* phase =
      named ~default:r.phase "phase"
        (Command.lookup ~what:"phase" Command.phases)
        j
    in
    let* overrides =
      named_list ~default:r.overrides "overrides" Lint.Registry.parse_override j
    in
    let* json = json_field j in
    let* flow = Protocol.bool_field ~default:r.flow "flow" j in
    Ok
      {
        Command.Lint.codes;
        mode = Report { severity; phase; overrides; flow };
        json;
      }

let explore_request j =
  let d = Command.Explore.default in
  let* models =
    named_list ~default:d.models "models" Command.model_of_string j
  in
  let* seeds = int_list_field ~default:d.seeds "seeds" j in
  let* biases =
    named_list ~default:d.biases "biases" Command.bias_of_string j
  in
  let* parts = Protocol.int_field ~default:d.parts "parts" j in
  let* steps = Protocol.int_field ~default:d.steps "steps" j in
  let* jobs = Protocol.int_field ~default:d.jobs "jobs" j in
  let* top = Protocol.int_field ~default:d.top "top" j in
  let* deadline = Protocol.float_field "deadline" j in
  let* retries = Protocol.int_field ~default:d.retries "retries" j in
  let* json = json_field j in
  Ok
    { Command.Explore.models; seeds; biases; parts; steps; jobs; top; deadline;
      retries; json }

let faults_request j =
  let d = Command.Faults.default in
  let* design = design j in
  let* classes =
    named_list ~default:d.classes "classes" Command.fault_class_of_string j
  in
  let* seeds = Protocol.int_field ~default:d.seeds "seeds" j in
  let* base_seed = Protocol.int_field ~default:d.base_seed "base_seed" j in
  let* deadline = Protocol.float_field "deadline" j in
  let* ordering =
    named ~default:d.ordering "ordering" Sim.Memord.policy_of_string j
  in
  let* json = json_field j in
  Ok
    { Command.Faults.design; classes; seeds; base_seed; deadline; ordering;
      json }

let litmus_request j =
  let d = Command.Litmus.default in
  let* orderings =
    named_list ~default:d.orderings "orderings" Sim.Memord.policy_of_string j
  in
  let* shapes =
    named_list ~default:d.shapes "shapes" Command.shape_of_string j
  in
  let* seeds = Protocol.int_field ~default:d.seeds "seeds" j in
  let* faults = Protocol.bool_field ~default:d.faults "faults" j in
  let* json = json_field j in
  Ok { Command.Litmus.shapes; orderings; seeds; faults; json }

(* --- running ------------------------------------------------------------- *)

(* Parameter digests keying served-result memoization in the shared
   cache.  Key domains are prefixed so they never collide with
   {!Explore.Evaluate}'s refinement and lint entries. *)
let refine_key (elab : Session.elab) (d : Command.design) =
  let p = d.Command.partitioning in
  Checkpoint.Blob.digest
    [
      "serve-refine-1";
      elab.Session.el_digest;
      string_of_int p.parts;
      Command.name_of Command.algos p.algo;
      string_of_int p.seed;
      Option.value p.assign ~default:"";
      Command.name_of Command.protocols d.protocol;
      string_of_bool d.harden;
      Core.Model.name d.model;
    ]

let run_refine ~session ~poll (elab : Session.elab) j =
  let* req = design j in
  let* () = check_poll poll in
  let text, cached =
    Explore.Cache.find_or_add ~count_stats:false (Session.cache session)
      (refine_key elab req) (fun () ->
        Result.map Command.Refine.render
          (Command.Refine.run elab.el_program
             (Explore.Evaluate.graph elab.el_ctx) req))
  in
  let* text = text in
  Ok
    {
      o_output = text;
      o_meta =
        [
          ("model", Protocol.String (Core.Model.name req.model));
          ("cached", Protocol.Bool cached);
        ];
    }

let run_lint ~session:_ ~poll (elab : Session.elab) j =
  let* file = Protocol.string_field ~default:"<spec>" "file" j in
  let* req = lint_request j in
  let* () = check_poll poll in
  let target =
    Command.Lint.target req file elab.el_program elab.el_locations
  in
  let* outcome = Command.Lint.run ~poll req [ target ] in
  let count key n = (key, Protocol.Int n) in
  Ok
    {
      o_output = Command.Lint.render req outcome;
      o_meta =
        (match outcome with
        | Diagnostics ts ->
          [ count "errors" (Lint.Report.errors ts);
            count "warnings" (Lint.Report.warnings ts) ]
        | Fixed r ->
          [ count "applied" (List.length r.Lint.Fixer.x_applied);
            count "refused" (List.length r.Lint.Fixer.x_refused) ]);
    }

let run_explore ~session ~poll (elab : Session.elab) j =
  let* req = explore_request j in
  let cache = Session.cache session in
  (* The override threads the daemon's cancel poll into every candidate
     while reusing the session's shared context, so two explore jobs over
     one spec share partition searches and refinements through the hot
     cache. *)
  let evaluate cand =
    Explore.Evaluate.run ~cache ?deadline_s:req.deadline ~poll elab.el_ctx
      cand
  in
  let* sw = Command.Explore.run ~cache ~evaluate ~poll elab.el_program req in
  Ok
    {
      o_output = Command.Explore.render req sw;
      o_meta =
        [
          ( "candidates",
            Protocol.Int (List.length sw.Explore.Sweep.sw_results) );
          ("coverage", Protocol.Float sw.sw_coverage);
          ("hits", Protocol.Int sw.sw_hits);
          ("misses", Protocol.Int sw.sw_misses);
        ];
    }

(* Every campaign on one (spec, design) gets the same physical refined
   program, so the simulator's session for it stays warm across jobs. *)
let run_faults ~session ~poll (elab : Session.elab) j =
  let* req = faults_request j in
  let refine () =
    Session.refined session elab ~key:(refine_key elab req.design) (fun () ->
        Command.refine elab.el_program
          (Explore.Evaluate.graph elab.el_ctx)
          req.design)
  in
  let* rp = Command.Faults.run ~poll ~refine req in
  Ok { o_output = Command.Faults.render req rp; o_meta = [] }

(* The litmus job runs the built-in weak-memory shapes: no spec. *)
let run_litmus ~poll j =
  let* req = litmus_request j in
  let* rp = Command.Litmus.run ~poll req in
  Ok
    {
      o_output = Command.Litmus.render req rp;
      o_meta =
        [
          ("entries", Protocol.Int (List.length rp.Litmus.Suite.rp_entries));
          ("weak_allowed", Protocol.Int rp.rp_weak_allowed);
          ("forbidden", Protocol.Int rp.rp_forbidden);
          ("corruption", Protocol.Int rp.rp_corruption);
          ("kernel_mismatches", Protocol.Int rp.rp_kernel_mismatches);
        ];
    }

(* --- dispatch ------------------------------------------------------------ *)

let guarded f =
  try f ()
  with exn -> Error (Printf.sprintf "job raised %s" (Printexc.to_string exn))

let run ~session ~poll job =
  let* kind = Protocol.string_field "kind" job in
  let with_spec f =
    let* source = Protocol.string_field "spec" job in
    guarded (fun () ->
        let* elab = Session.elaborate session ~source in
        f ~session ~poll elab job)
  in
  match kind with
  | "litmus" -> guarded (fun () -> run_litmus ~poll job)
  | "refine" -> with_spec run_refine
  | "lint" -> with_spec run_lint
  | "explore" -> with_spec run_explore
  | "faults" -> with_spec run_faults
  | _ ->
    Error
      (Printf.sprintf
         "unknown job kind %S (use refine, lint, explore, faults or litmus)"
         kind)
