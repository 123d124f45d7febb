(** The command layer shared by [mrefine] and [mrefine serve].

    Each served kind — refine, lint, explore, faults, litmus — has one
    typed request record, one [run] and one [render].  The CLI builds a
    request from its Cmdliner flags and the daemon builds the same
    record from a job's JSON fields, so the two print the same bytes by
    construction.  What only one entry point has (the daemon's cancel
    poll, session cache and evaluation override; the CLI's resume
    journal, cache directory, workload targets and stderr warnings) is
    an argument of [run], never a field of a request.

    The module has no separate interface: it is mostly the request
    records, which an interface would only restate. *)

let ( let* ) = Result.bind

(* --- names --------------------------------------------------------------- *)

type algo = [ `Greedy | `Kl | `Annealing | `Clustering ]

(** The name tables behind both [Arg.enum] and the job decoder. *)
let algos =
  [ ("greedy", `Greedy); ("kl", `Kl); ("annealing", `Annealing);
    ("clustering", `Clustering) ]

let protocols =
  [ ("four-phase", Core.Protocol.Four_phase);
    ("two-phase", Core.Protocol.Two_phase) ]

let phases =
  [ ("auto", None); ("pre", Some Lint.Registry.Pre);
    ("post", Some Lint.Registry.Post) ]

(* "a, b or c" *)
let choices names =
  match List.rev names with
  | last :: (_ :: _ as rest) ->
    String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat "" names

let unknown what name names =
  Error (Printf.sprintf "unknown %s %S (use %s)" what name (choices names))

(** [lookup ~what table name], or ["unknown WHAT \"name\" (use a, b or c)"]. *)
let lookup ~what table name =
  match List.assoc_opt name table with
  | Some v -> Ok v
  | None -> unknown what name (List.map fst table)

let name_of table v = fst (List.find (fun (_, v') -> v' = v) table)

let of_option ~what ~names parse name =
  match parse name with Some v -> Ok v | None -> unknown what name names

let model_of_string name =
  match Core.Model.of_string name with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown model %S (use 1-4)" name)

let bias_of_string =
  of_option ~what:"bias"
    ~names:(List.map Explore.Candidate.bias_name Explore.Candidate.all_biases)
    Explore.Candidate.bias_of_string

let fault_class_of_string =
  of_option ~what:"fault class"
    ~names:(List.map Faults.Fault.cls_name Faults.Fault.all_classes)
    Faults.Fault.cls_of_name

let severity_of_string =
  of_option ~what:"severity" ~names:[ "info"; "warning"; "error" ]
    Spec.Diagnostic.severity_of_string

let shape_of_string =
  of_option ~what:"litmus shape"
    ~names:[ "sb"; "mp"; "lb"; "co"; "mem"; "mem-tmr" ]
    Litmus.Shape.find

(** The error of a run stopped by its [poll]. *)
let cancelled = "cancelled"

let check_poll = function
  | Some poll when poll () -> Error cancelled
  | _ -> Ok ()

let at_least what min n =
  if n < min then Error (Printf.sprintf "%s must be >= %d" what min) else Ok ()

(* A deadline in seconds: [nan] and infinities would silently mean "no
   deadline", and one already past would cancel the run at once. *)
let deadline_ok = function
  | Some d when not (Float.is_finite d && d > 0.) ->
    Error "deadline must be finite and > 0"
  | _ -> Ok ()

let non_empty what l =
  if l = [] then Error (what ^ " must be non-empty") else Ok ()

(* Open the checkpoint journal at [path] (if any) under [meta ()], run
   [f] with it and close it again.  Without a journal [meta] is not
   called: a meta can print and digest a whole design. *)
let with_journal path ~meta f =
  match path with
  | None -> f None
  | Some path -> (
    match Checkpoint.Journal.open_ ~path ~meta:(meta ()) with
    | exception Checkpoint.Journal.Journal_error msg -> Error msg
    | j ->
      Fun.protect
        ~finally:(fun () -> Checkpoint.Journal.close j)
        (fun () -> f (Some j)))

(* --- partitions and designs ---------------------------------------------- *)

type partitioning = {
  parts : int;
  algo : algo;
  seed : int;  (** annealing seed *)
  assign : string option;  (** manual ["A=0,B=1,x=1"]; overrides [algo] *)
}

let partition_of_assign g parts assign =
  let module P = Partitioning.Partition in
  let entry e =
    match String.split_on_char '=' (String.trim e) with
    | [ name; idx ] ->
      let name = String.trim name and idx = String.trim idx in
      let* obj =
        if List.mem name g.Agraph.Access_graph.g_objects then
          Ok (P.Obj_behavior name)
        else if List.mem name g.Agraph.Access_graph.g_variables then
          Ok (P.Obj_variable name)
        else Error (Printf.sprintf "unknown object %s" name)
      in
      begin match int_of_string_opt idx with
      | None -> Error (Printf.sprintf "bad partition index %S for %s" idx name)
      | Some i when i < 0 || i >= parts ->
        Error
          (Printf.sprintf "%s assigned to partition %d (use 0 to %d)" name i
             (parts - 1))
      | Some i -> Ok (obj, i)
      end
    | _ -> Error (Printf.sprintf "bad assignment entry %S" e)
  in
  let* assocs =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* ((obj, _) as a) = entry e in
        if List.mem_assoc obj acc then
          Error (Printf.sprintf "%s assigned twice" (P.obj_name obj))
        else Ok (a :: acc))
      (Ok [])
      (String.split_on_char ',' assign)
  in
  P.make g ~n_parts:parts (List.rev assocs)

(** Needs [parts >= 1].  A manual partition names every object of the
    graph once, each with an integer index in [\[0, parts)]. *)
let partition g p =
  let* () = at_least "parts" 1 p.parts in
  match p.assign with
  | Some a -> partition_of_assign g p.parts a
  | None ->
    let n_parts = p.parts in
    Ok
      (match p.algo with
      | `Greedy -> Partitioning.Greedy.run g ~n_parts
      | `Kl -> Partitioning.Kl.run_from_scratch g ~n_parts
      | `Annealing ->
        Partitioning.Annealing.run
          ~config:{ Partitioning.Annealing.default_config with seed = p.seed }
          g ~n_parts
      | `Clustering -> Partitioning.Clustering.run g ~n_parts)

type design = {
  partitioning : partitioning;
  model : Core.Model.t;
  protocol : Core.Protocol.style;
  harden : bool;
}

(** Model 2, two greedy partitions, annealing seed 42, four-phase,
    unhardened. *)
let default_design =
  {
    partitioning = { parts = 2; algo = `Greedy; seed = 42; assign = None };
    model = Core.Model.Model2;
    protocol = Core.Protocol.Four_phase;
    harden = false;
  }

(** Partition, then refine; refiner errors are returned. *)
let refine p g d =
  let* part = partition g d.partitioning in
  let options =
    {
      Core.Refiner.default_options with
      protocol = d.protocol;
      harden = d.harden;
    }
  in
  match Core.Refiner.refine ~options p g part d.model with
  | r -> Ok r
  | exception Core.Refiner.Refine_error msg -> Error msg

(* --- requests ------------------------------------------------------------ *)

module Refine = struct
  type request = design

  (** Refine, then run {!Core.Check}: a failed check is an error. *)
  let run p g req =
    let* r = refine p g req in
    match Core.Check.run ~original:p r with
    | Ok () -> Ok r
    | Error msgs -> Error ("check failed: " ^ String.concat "; " msgs)

  let render r = Spec.Printer.program_to_string r.Core.Refiner.rf_program
end

module Lint = struct
  type report = {
    severity : Spec.Diagnostic.severity;  (** report at least this *)
    phase : Lint.Registry.phase option;  (** [None]: infer *)
    overrides : (string * Lint.Registry.override) list;
    flow : bool;
  }

  type mode = Report of report | Fix

  type request = {
    codes : string list;  (** report or fix only these; [[]] = all *)
    mode : mode;
    json : bool;
  }

  let default_report =
    {
      severity = Spec.Diagnostic.Info;
      phase = None;
      overrides = [];
      flow = false;
    }

  (** A [Fix] request.  [given] names the report-only knobs the caller
      set.  The fixer runs the full pass set on its own candidates and
      reports rewrites, not diagnostics, so any of them is refused
      rather than silently ignored, and so is a code it cannot fix. *)
  let fix ~codes ~given ~json =
    let fixable = Lint.Fixer.fixable_codes in
    if given <> [] then
      Error (Printf.sprintf "fix takes no %s" (String.concat ", " given))
    else
      match List.filter (fun c -> not (List.mem c fixable)) codes with
      | [] -> Ok { codes; mode = Fix; json }
      | bad ->
        Error
          (Printf.sprintf "code(s) %s are not fixable (fixable: %s)"
             (String.concat ", " bad) (String.concat ", " fixable))

  type target = {
    t_name : string;  (** the file name reported *)
    t_program : Spec.Ast.program;
    t_phase : Lint.Registry.phase option;  (** [None]: infer *)
    t_locations : Spec.Parser.locations option;  (** to locate findings *)
  }

  (** A parsed file as a target, under the request's phase. *)
  let target req name p locs =
    let phase = match req.mode with Report r -> r.phase | Fix -> None in
    { t_name = name; t_program = p; t_phase = phase; t_locations = Some locs }

  type outcome =
    | Diagnostics of Lint.Report.target list
    | Fixed of Lint.Fixer.result

  let report_target req r t =
    let ds =
      Lint.Registry.run ?phase:t.t_phase ~overrides:r.overrides ~flow:r.flow
        t.t_program
    in
    let keep d =
      Spec.Diagnostic.severity_rank d.Spec.Diagnostic.d_severity
      <= Spec.Diagnostic.severity_rank r.severity
      && (req.codes = [] || List.mem d.Spec.Diagnostic.d_code req.codes)
    in
    let ds = List.filter keep ds in
    let ds =
      match t.t_locations with
      | Some locs -> Lint.Report.locate ~file:t.t_name locs ds
      | None -> ds
    in
    let t_phase =
      match t.t_phase with
      | Some ph -> ph
      | None -> Lint.Registry.infer_phase t.t_program
    in
    { Lint.Report.t_name = t.t_name; t_phase; t_diags = ds }

  (** Lint every target, or fix the single one; [poll] cancels a fix
      between candidates. *)
  let run ?poll req targets =
    match (req.mode, targets) with
    | Report r, _ -> Ok (Diagnostics (List.map (report_target req r) targets))
    | Fix, [ t ] -> (
      let codes =
        if req.codes = [] then Lint.Fixer.fixable_codes else req.codes
      in
      match Lint.Fixer.fix ~codes ?poll t.t_program with
      | r -> Ok (Fixed r)
      | exception Lint.Fixer.Cancelled -> Error cancelled)
    | Fix, _ -> Error "fix needs exactly one spec"

  let fix_json (r : Lint.Fixer.result) =
    let open Spec.Json in
    let entry code loc key text =
      Obj [ ("code", String code); ("loc", String loc); (key, String text) ]
    in
    let applied (a : Lint.Fixer.applied) =
      entry a.Lint.Fixer.fx_code a.Lint.Fixer.fx_loc "note" a.Lint.Fixer.fx_note
    in
    let refused (f : Lint.Fixer.refused) =
      entry f.Lint.Fixer.fr_code f.Lint.Fixer.fr_loc "reason"
        f.Lint.Fixer.fr_reason
    in
    to_string
      (Obj
         [
           ("changed", Bool r.Lint.Fixer.x_changed);
           ("applied", List (List.map applied r.Lint.Fixer.x_applied));
           ("refused", List (List.map refused r.Lint.Fixer.x_refused));
           ("source", String r.Lint.Fixer.x_source);
         ])

  let render req = function
    | Diagnostics ts ->
      if req.json then Lint.Report.to_json ts else Lint.Report.to_text ts
    | Fixed r -> if req.json then fix_json r else r.Lint.Fixer.x_source
end

module Explore = struct
  type request = {
    models : Core.Model.t list;
    seeds : int list;
    biases : Partitioning.Design_search.bias list;
    parts : int;
    steps : int;
    jobs : int;
    top : int;  (** candidate rows shown; 0 = all *)
    deadline : float option;  (** per candidate *)
    retries : int;
    json : bool;
  }

  (** Every model and bias, seeds 1-3, 2 partitions, 4000 steps, 1 job,
      all rows, no deadline, 2 retries. *)
  let default =
    {
      models = Core.Model.all;
      seeds = [ 1; 2; 3 ];
      biases = Explore.Candidate.all_biases;
      parts = 2;
      steps = 4000;
      jobs = 1;
      top = 0;
      deadline = None;
      retries = 2;
      json = false;
    }

  let config req =
    let* () = at_least "jobs" 1 req.jobs in
    let* () = at_least "retries" 0 req.retries in
    let* () = at_least "parts" 1 req.parts in
    let* () = at_least "steps" 0 req.steps in
    let* () = at_least "top" 0 req.top in
    let* () = deadline_ok req.deadline in
    let* () =
      if req.models = [] || req.seeds = [] || req.biases = [] then
        Error "models, seeds and biases must be non-empty"
      else Ok ()
    in
    Ok
      {
        Explore.Sweep.seeds = req.seeds;
        biases = req.biases;
        models = req.models;
        n_parts = req.parts;
        steps = req.steps;
        jobs = req.jobs;
        deadline_s = req.deadline;
        retries = req.retries;
        backoff_s = Explore.Sweep.default_config.Explore.Sweep.backoff_s;
      }

  (** Validate, then sweep.  [resume] is a checkpoint journal path;
      [cache] and [evaluate] go to {!Explore.Sweep.run}. *)
  let run ?cache ?resume ?evaluate ?poll p req =
    let* config = config req in
    let* () = check_poll poll in
    let* sw =
      with_journal resume
        ~meta:(fun () -> Explore.Sweep.journal_meta config p)
        (fun journal ->
          Ok (Explore.Sweep.run ?cache ?journal ?evaluate config p))
    in
    let* () = check_poll poll in
    Ok sw

  let render req sw =
    if req.json then Explore.Sweep.to_json ~top:req.top sw
    else Explore.Sweep.to_text ~top:req.top sw
end

module Faults = struct
  type request = {
    design : design;
    classes : Faults.Fault.cls list;
    seeds : int;
    base_seed : int;
    deadline : float option;  (** whole campaign *)
    ordering : Sim.Memord.policy;
    json : bool;
  }

  (** Every class, 8 rounds from base seed 1, no deadline, [sc]. *)
  let default =
    {
      design = default_design;
      classes = Faults.Fault.all_classes;
      seeds = 8;
      base_seed = 1;
      deadline = None;
      ordering = Sim.Memord.Sc;
      json = false;
    }

  (** Validate, get the refined [req.design] from [refine], then run
      the campaign.  [refine] is the caller's: the CLI refines once, the
      daemon reuses a memoized design.  [resume] is a checkpoint journal
      path. *)
  let run ?poll ?resume ~refine req =
    let* () = at_least "seeds" 1 req.seeds in
    let* () = non_empty "classes" req.classes in
    let* () = deadline_ok req.deadline in
    let* () = check_poll poll in
    let* r = refine () in
    let* () = check_poll poll in
    let config =
      {
        Faults.Campaign.default_config with
        Faults.Campaign.cf_seeds = req.seeds;
        cf_base_seed = req.base_seed;
        cf_classes = req.classes;
        cf_deadline_s = req.deadline;
        cf_poll = poll;
        cf_ordering = req.ordering;
      }
    in
    let* report =
      with_journal resume
        ~meta:(fun () -> Faults.Campaign.journal_meta config r)
        (fun journal ->
          match Faults.Campaign.run ~config ?journal r with
          | report -> Ok report
          | exception Faults.Campaign.Campaign_error msg ->
            Error ("fault campaign: " ^ msg))
    in
    let* () = check_poll poll in
    Ok report

  let render req rp =
    if req.json then Faults.Campaign.to_json rp else Faults.Campaign.to_text rp
end

module Litmus = struct
  type request = {
    shapes : Litmus.Shape.t list;  (** [[]] = every shape *)
    orderings : Sim.Memord.policy list;
    seeds : int;
    faults : bool;
    json : bool;
  }

  (** Every shape under the three orderings, 4 seeds, no faults. *)
  let default =
    {
      shapes = [];
      orderings =
        [ Sim.Memord.Sc; Sim.Memord.Per_port_fifo;
          Sim.Memord.Relaxed Sim.Memord.default_window ];
      seeds = 4;
      faults = false;
      json = false;
    }

  let run ?poll req =
    let* () = at_least "seeds" 1 req.seeds in
    let* () = non_empty "orderings" req.orderings in
    let* () = check_poll poll in
    let rp =
      Litmus.Suite.run
        {
          Litmus.Suite.cf_shapes =
            (if req.shapes = [] then Litmus.Shape.all () else req.shapes);
          cf_orderings = req.orderings;
          cf_seeds = req.seeds;
          cf_faults = req.faults;
        }
    in
    let* () = check_poll poll in
    Ok rp

  let render req rp =
    if req.json then Litmus.Suite.to_json rp else Litmus.Suite.to_text rp
end
