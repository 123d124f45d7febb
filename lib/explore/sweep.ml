(** Sweep orchestration and reporting.  The deterministic-reduction rule:
    results are kept in candidate enumeration order (the {!Pool}
    preserves input order), the frontier is computed from that list and
    then sorted by objective vector with the candidate order as the tie
    break — no step depends on domain scheduling.

    Resilience: evaluations run under {!Pool.supervise} (worker
    exceptions are confined to their candidate, retried with backoff,
    then quarantined), each candidate may carry a cooperative deadline,
    and every definitive outcome is checkpointed to an optional
    {!Checkpoint.Journal} the moment it completes — a killed sweep
    resumes by replaying the journal and evaluating only the
    remainder. *)

type config = {
  seeds : int list;
  biases : Partitioning.Design_search.bias list;
  models : Core.Model.t list;
  n_parts : int;
  steps : int;
  jobs : int;
  deadline_s : float option;
  retries : int;
  backoff_s : float;
}

let default_config =
  {
    seeds = [ 1; 2; 3 ];
    biases = Candidate.all_biases;
    models = Core.Model.all;
    n_parts = 2;
    steps = 4000;
    jobs = 1;
    deadline_s = None;
    retries = Pool.default_supervisor.Pool.sv_retries;
    backoff_s = Pool.default_supervisor.Pool.sv_backoff_s;
  }

type t = {
  sw_results : Evaluate.result list;
  sw_frontier : Evaluate.result list;
  sw_hits : int;
  sw_misses : int;
  sw_jobs : int;
  sw_replayed : int;
  sw_coverage : float;
  sw_failures : (string * int) list;
}

(* Fourth axis: fragility (1 - robustness), so every objective is
   minimized uniformly. *)
let objectives (m : Evaluate.metrics) =
  [|
    m.Evaluate.e_max_bus_rate;
    m.Evaluate.e_growth;
    float_of_int (m.Evaluate.e_pins + m.Evaluate.e_gates);
    1.0 -. m.Evaluate.e_robustness;
  |]

let result_objectives (r : Evaluate.result) =
  match r.Evaluate.r_outcome with
  | Ok m -> objectives m
  | Error _ -> [| infinity; infinity; infinity; infinity |]

(* The journal meta binds a sweep journal to everything that determines a
   candidate's outcome: the specification and the per-candidate search
   parameters.  Deliberately *not* the candidate list — resuming with
   more seeds or models reuses every overlapping result. *)
let journal_meta config spec =
  Checkpoint.Blob.digest
    [
      "explore-sweep-2";
      Evaluate.spec_digest spec;
      string_of_int config.n_parts;
      string_of_int config.steps;
    ]

let run ?cache ?journal ?evaluate config spec =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let before = Cache.stats cache in
  let evaluate =
    match evaluate with
    | Some f -> f
    | None ->
      Evaluate.run ~cache ?deadline_s:config.deadline_s (Evaluate.make_ctx spec)
  in
  let candidates =
    Candidate.enumerate ~n_parts:config.n_parts ~steps:config.steps
      ~biases:config.biases ~seeds:config.seeds ~models:config.models ()
  in
  (* Split the enumeration into journal replays and work to do, keeping
     the enumeration order for the merge below. *)
  let tagged =
    List.map
      (fun c ->
        let replayed =
          match journal with
          | None -> None
          | Some j ->
            Option.bind
              (Checkpoint.Journal.find j (Candidate.label c))
              Checkpoint.Blob.of_blob
        in
        match replayed with
        | Some outcome ->
          Either.Left
            {
              Evaluate.r_candidate = c;
              r_outcome = outcome;
              r_cached = false;
              r_replayed = true;
            }
        | None -> Either.Right c)
      candidates
  in
  let todo =
    List.filter_map
      (function Either.Right c -> Some c | Either.Left _ -> None)
      tagged
  in
  let checkpointed c (r : Evaluate.result) =
    (match journal with
    | Some j when Evaluate.definitive r.Evaluate.r_outcome ->
      Checkpoint.Journal.append j
        ~key:(Candidate.label c)
        (Checkpoint.Blob.to_blob r.Evaluate.r_outcome)
    | _ -> ());
    r
  in
  let supervisor =
    {
      Pool.default_supervisor with
      Pool.sv_retries = config.retries;
      sv_backoff_s = config.backoff_s;
    }
  in
  let computed =
    ref
      (Pool.supervise ~supervisor ~jobs:config.jobs
         ~f:(fun c -> checkpointed c (evaluate c))
         todo)
  in
  let next_computed c =
    match !computed with
    | [] -> assert false (* one supervised result per Right tag *)
    | Ok r :: rest ->
      computed := rest;
      r
    | Error (fl : Pool.failure) :: rest ->
      computed := rest;
      {
        Evaluate.r_candidate = c;
        r_outcome =
          Error
            (Evaluate.Crashed
               {
                 cr_exn = fl.Pool.f_exn;
                 cr_backtrace = fl.Pool.f_backtrace;
                 cr_attempts = fl.Pool.f_attempts;
               });
        r_cached = false;
        r_replayed = false;
      }
  in
  let results =
    List.map
      (function Either.Left r -> r | Either.Right c -> next_computed c)
      tagged
  in
  let ok r = Result.is_ok r.Evaluate.r_outcome in
  let frontier =
    Pareto.frontier ~objectives:result_objectives (List.filter ok results)
    |> Pareto.sort ~objectives:result_objectives
  in
  let total = List.length results in
  let n_definitive =
    List.length
      (List.filter (fun r -> Evaluate.definitive r.Evaluate.r_outcome) results)
  in
  let failures =
    let counts = Hashtbl.create 4 in
    List.iter
      (fun r ->
        match r.Evaluate.r_outcome with
        | Ok _ -> ()
        | Error f ->
          let kind = Evaluate.failure_kind f in
          Hashtbl.replace counts kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind)))
      results;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  let after = Cache.stats cache in
  {
    sw_results = results;
    sw_frontier = frontier;
    sw_hits = after.Cache.hits - before.Cache.hits;
    sw_misses = after.Cache.misses - before.Cache.misses;
    sw_jobs = config.jobs;
    sw_replayed =
      List.length (List.filter (fun r -> r.Evaluate.r_replayed) results);
    sw_coverage =
      (if total = 0 then 1.0
       else float_of_int n_definitive /. float_of_int total);
    sw_failures = failures;
  }

let hit_rate t =
  let total = t.sw_hits + t.sw_misses in
  if total = 0 then 0.0 else float_of_int t.sw_hits /. float_of_int total

let take n xs =
  if n <= 0 then xs
  else List.filteri (fun i _ -> i < n) xs

(* --- text report -------------------------------------------------------- *)

let row_of (r : Evaluate.result) =
  let label = Candidate.label r.Evaluate.r_candidate in
  match r.Evaluate.r_outcome with
  | Error f ->
    Printf.sprintf "%-24s FAILED[%s]: %s" label (Evaluate.failure_kind f)
      (Evaluate.failure_message f)
  | Ok m ->
    Printf.sprintf
      "%-24s %2dL/%-2dG %8.1f Mbps %6.1fx %4d pins %6d gates rob:%.2f %s \
       lint:%dE/%dW live:%dD/%dW%s%s"
      label m.Evaluate.e_locals m.Evaluate.e_globals m.Evaluate.e_max_bus_rate
      m.Evaluate.e_growth m.Evaluate.e_pins m.Evaluate.e_gates
      m.Evaluate.e_robustness
      (if m.Evaluate.e_check_ok then "ok" else "CHECK-FAILED")
      m.Evaluate.e_lint_errors m.Evaluate.e_lint_warnings
      m.Evaluate.e_live_dead_stores m.Evaluate.e_live_write_only
      (if r.Evaluate.r_cached then " (cached)" else "")
      (if r.Evaluate.r_replayed then " (replayed)" else "")

let to_text ?(top = 0) t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "design-space sweep: %d candidates, %d jobs, cache %d hits / %d misses (%.0f%% hit rate)"
    (List.length t.sw_results) t.sw_jobs t.sw_hits t.sw_misses
    (100.0 *. hit_rate t);
  line "coverage %.1f%% (%d of %d definitive%s)%s"
    (100.0 *. t.sw_coverage)
    (List.length t.sw_results
    - List.fold_left
        (fun acc (kind, n) ->
          if kind = "timeout" || kind = "crash" then acc + n else acc)
        0 t.sw_failures)
    (List.length t.sw_results)
    (if t.sw_replayed > 0 then
       Printf.sprintf ", %d replayed from journal" t.sw_replayed
     else "")
    (match t.sw_failures with
    | [] -> ""
    | fs ->
      "; failures: "
      ^ String.concat ", "
          (List.map (fun (kind, n) -> Printf.sprintf "%s=%d" kind n) fs));
  line "%-24s %-7s %-13s %-7s %s" "candidate" "loc/glo" "max bus rate"
    "growth" "pins/gates";
  List.iter (fun r -> line "%s" (row_of r)) (take top t.sw_results);
  if top > 0 && List.length t.sw_results > top then
    line "... (%d more candidates)" (List.length t.sw_results - top);
  line "";
  line "Pareto frontier (minimizing max bus rate, growth, pins+gates, fragility): %d designs"
    (List.length t.sw_frontier);
  List.iter (fun r -> line "  %s" (row_of r)) t.sw_frontier;
  Buffer.contents buf

(* --- JSON report --------------------------------------------------------- *)

let json_of_result (r : Evaluate.result) =
  let open Spec.Json in
  let c = r.Evaluate.r_candidate in
  let base =
    [
      ("candidate", String (Candidate.label c));
      ("seed", Int c.Candidate.c_seed);
      ("bias", String (Candidate.bias_name c.Candidate.c_bias));
      ("model", String (Core.Model.name c.Candidate.c_model));
      ("cached", Bool r.Evaluate.r_cached);
      ("replayed", Bool r.Evaluate.r_replayed);
    ]
  in
  match r.Evaluate.r_outcome with
  | Error f ->
    Obj
      (base
      @ [
          ("failure", String (Evaluate.failure_kind f));
          ("error", String (Evaluate.failure_message f));
        ])
  | Ok m ->
    Obj
      (base
      @ [
          ("locals", Int m.Evaluate.e_locals);
          ("globals", Int m.Evaluate.e_globals);
          ("comm_bits", Int m.Evaluate.e_comm_bits);
          ("max_bus_rate_mbps", fixed 4 m.Evaluate.e_max_bus_rate);
          ("buses", Int m.Evaluate.e_bus_count);
          ("memories", Int m.Evaluate.e_memories);
          ("lines", Int m.Evaluate.e_lines);
          ("growth", fixed 4 m.Evaluate.e_growth);
          ("pins", Int m.Evaluate.e_pins);
          ("gates", Int m.Evaluate.e_gates);
          ("software_bytes", Int m.Evaluate.e_software_bytes);
          ("exec_seconds", fixed 6 m.Evaluate.e_exec_seconds);
          ("check_ok", Bool m.Evaluate.e_check_ok);
          ("lint_errors", Int m.Evaluate.e_lint_errors);
          ("lint_warnings", Int m.Evaluate.e_lint_warnings);
          ("live_dead_stores", Int m.Evaluate.e_live_dead_stores);
          ("live_write_only", Int m.Evaluate.e_live_write_only);
          ("robustness", fixed 4 m.Evaluate.e_robustness);
        ])

let to_json ?(top = 0) t =
  let open Spec.Json in
  to_string
    (Obj
       [
         ("candidates", Int (List.length t.sw_results));
         ("jobs", Int t.sw_jobs);
         ( "cache",
           Obj
             [
               ("hits", Int t.sw_hits);
               ("misses", Int t.sw_misses);
               ("hit_rate", fixed 4 (hit_rate t));
             ] );
         ("coverage", fixed 4 t.sw_coverage);
         ("replayed", Int t.sw_replayed);
         ( "failures",
           Obj (List.map (fun (kind, n) -> (kind, Int n)) t.sw_failures) );
         ("results", List (List.map json_of_result (take top t.sw_results)));
         ("pareto", List (List.map json_of_result t.sw_frontier));
       ])
