(** Tests for the design-space exploration engine: the domain pool, the
    memoization cache and the Pareto operators directly, plus whole
    sweeps — determinism across worker counts, cache hit rates on
    repeated and persistent sweeps, and the frontier's soundness. *)

open Explore
open Helpers
module Blob = Checkpoint.Blob

(* --- pool ---------------------------------------------------------------- *)

(* Every item's value, failing the test on a quarantined item. *)
let supervised ?supervisor ~jobs ~f items =
  List.map
    (function
      | Ok v -> v
      | Error (fl : Pool.failure) ->
        Alcotest.failf "item %d quarantined: %s" fl.Pool.f_index fl.Pool.f_exn)
    (Pool.supervise ?supervisor ~jobs ~f items)

let test_pool_matches_list_map () =
  let items = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (supervised ~jobs ~f items))
    [ 1; 2; 4; 8 ]

let test_pool_more_jobs_than_items () =
  Alcotest.(check (list int)) "3 items, 16 jobs" [ 2; 4; 6 ]
    (supervised ~jobs:16 ~f:(fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (supervised ~jobs:4 ~f:succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ]
    (supervised ~jobs:4 ~f:succ [ 7 ])

let test_pool_rejects_bad_jobs () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Pool.supervise: jobs < 1")
    (fun () -> ignore (Pool.supervise ~jobs:0 ~f:succ [ 1 ]))

let test_pool_exception_is_deterministic () =
  (* Items 30 and 60 always fail; exactly those two are quarantined, in
     place and with their own exception, at every worker count. *)
  let f x = if x = 30 || x = 60 then failwith (string_of_int x) else x in
  let supervisor =
    { Pool.sv_retries = 0; sv_backoff_s = 0.0; sv_max_backoff_s = 0.0 }
  in
  List.iter
    (fun jobs ->
      let failed =
        List.filter_map
          (function
            | Ok _ -> None
            | Error (fl : Pool.failure) ->
              Some (fl.Pool.f_index, fl.Pool.f_exn))
          (Pool.supervise ~supervisor ~jobs ~f (List.init 100 Fun.id))
      in
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "quarantined at jobs=%d" jobs)
        [ (30, Printexc.to_string (Failure "30"));
          (60, Printexc.to_string (Failure "60")) ]
        failed)
    [ 1; 3; 7 ]

let test_pool_runs_every_item_once () =
  let hits = Array.init 50 (fun _ -> Atomic.make 0) in
  ignore
    (supervised ~jobs:4
       ~f:(fun i -> Atomic.incr hits.(i))
       (List.init 50 Fun.id));
  Alcotest.(check (list int)) "each item once" (List.init 50 (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get hits))

(* --- supervised pool ----------------------------------------------------- *)

let test_supervise_all_ok () =
  let items = List.init 30 Fun.id in
  let got = Pool.supervise ~jobs:4 ~f:(fun x -> x * 3) items in
  Alcotest.(check (list int)) "matches List.map" (List.map (fun x -> x * 3) items)
    (List.map Result.get_ok got)

let fast_supervisor retries =
  { Pool.sv_retries = retries; sv_backoff_s = 0.001; sv_max_backoff_s = 0.002 }

let test_supervise_quarantines_repeat_offender () =
  let f x = if x = 3 then failwith "always broken" else x in
  let got =
    Pool.supervise ~supervisor:(fast_supervisor 1) ~jobs:4 ~f
      (List.init 8 Fun.id)
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v when i <> 3 -> Alcotest.(check int) "other items fine" i v
      | Ok _ -> Alcotest.fail "item 3 should be quarantined"
      | Error (fl : Pool.failure) ->
        Alcotest.(check int) "quarantined index" 3 fl.Pool.f_index;
        Alcotest.(check int) "first try + 1 retry" 2 fl.Pool.f_attempts;
        Alcotest.(check bool) "exception text kept" true
          (String.length fl.Pool.f_exn > 0))
    got

let test_supervise_retries_transient_failure () =
  let attempts = Array.init 10 (fun _ -> Atomic.make 0) in
  let f i =
    let k = 1 + Atomic.fetch_and_add attempts.(i) 1 in
    if i = 5 && k = 1 then failwith "flaky" else i * 2
  in
  let got =
    Pool.supervise ~supervisor:(fast_supervisor 2) ~jobs:4 ~f
      (List.init 10 Fun.id)
  in
  Alcotest.(check (list int)) "transient failure recovered"
    (List.init 10 (fun i -> i * 2))
    (List.map Result.get_ok got);
  Alcotest.(check int) "exactly one retry" 2 (Atomic.get attempts.(5))

let test_supervise_independent_of_jobs () =
  let f x = if x mod 7 = 3 then failwith (string_of_int x) else x + 100 in
  let fingerprint jobs =
    List.map
      (function
        | Ok v -> Printf.sprintf "ok:%d" v
        | Error (fl : Pool.failure) ->
          Printf.sprintf "fail:%d:%d:%s" fl.Pool.f_index fl.Pool.f_attempts
            fl.Pool.f_exn)
      (Pool.supervise ~supervisor:(fast_supervisor 1) ~jobs ~f
         (List.init 40 Fun.id))
  in
  let seq = fingerprint 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d" jobs)
        seq (fingerprint jobs))
    [ 2; 4 ]

let test_backoff_delay_doubles_and_caps () =
  let sv =
    { Pool.sv_retries = 8; sv_backoff_s = 0.05; sv_max_backoff_s = 1.0 }
  in
  Alcotest.(check (float 1e-9)) "first" 0.05 (Pool.backoff_delay sv 1);
  Alcotest.(check (float 1e-9)) "doubles" 0.1 (Pool.backoff_delay sv 2);
  Alcotest.(check (float 1e-9)) "doubles again" 0.2 (Pool.backoff_delay sv 3);
  Alcotest.(check (float 1e-9)) "capped" 1.0 (Pool.backoff_delay sv 6)

(* --- cache --------------------------------------------------------------- *)

let test_cache_computes_once () =
  let c = Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; 41 + 1 in
  let v1, cached1 = Cache.find_or_add c "k" compute in
  let v2, cached2 = Cache.find_or_add c "k" compute in
  Alcotest.(check int) "value" 42 v1;
  Alcotest.(check int) "same value" 42 v2;
  Alcotest.(check bool) "first is a miss" false cached1;
  Alcotest.(check bool) "second is a hit" true cached2;
  Alcotest.(check int) "computed once" 1 !calls;
  let s = Cache.stats c in
  Alcotest.(check (pair int int)) "stats" (1, 1) (s.Cache.hits, s.Cache.misses);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Cache.hit_rate c)

let test_cache_distinct_keys () =
  let c = Cache.create () in
  let v1, _ = Cache.find_or_add c "a" (fun () -> 1) in
  let v2, _ = Cache.find_or_add c "b" (fun () -> 2) in
  Alcotest.(check (pair int int)) "no collision" (1, 2) (v1, v2);
  Alcotest.(check bool) "mem a" true (Cache.mem c "a");
  Alcotest.(check bool) "not mem c" false (Cache.mem c "zzz")

let fresh_temp_dir () =
  let path = Filename.temp_file "coref_cache" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let test_cache_persists_across_instances () =
  let dir = fresh_temp_dir () in
  let calls = ref 0 in
  let compute () = incr calls; [ "deep"; "value" ] in
  let c1 = Cache.create ~dir () in
  let _ = Cache.find_or_add c1 (Blob.digest [ "x" ]) compute in
  (* A second process (modelled by a fresh instance) must hit on disk. *)
  let c2 = Cache.create ~dir () in
  let v, cached = Cache.find_or_add c2 (Blob.digest [ "x" ]) compute in
  Alcotest.(check (list string)) "round-trip" [ "deep"; "value" ] v;
  Alcotest.(check bool) "disk hit" true cached;
  Alcotest.(check int) "computed once across instances" 1 !calls

let test_cache_tolerates_corrupt_files () =
  let dir = fresh_temp_dir () in
  let key = Blob.digest [ "corrupt" ] in
  let oc = open_out_bin (Filename.concat dir (key ^ ".memo")) in
  output_string oc "not a cache entry";
  close_out oc;
  let c = Cache.create ~dir () in
  let v, cached = Cache.find_or_add c key (fun () -> 7) in
  Alcotest.(check int) "recomputed" 7 v;
  Alcotest.(check bool) "treated as miss" false cached

let test_cache_tolerates_corrupt_blob () =
  (* A framed file whose marshalled payload is damaged (truncated
     on disk, bit rot) must read as a miss, not raise — and the damaged
     file must be replaced by the recomputed value. *)
  let dir = fresh_temp_dir () in
  let key = Blob.digest [ "corrupt-blob" ] in
  let c0 = Cache.create ~dir () in
  let v0, _ = Cache.find_or_add c0 key (fun () -> 41) in
  Alcotest.(check int) "initial value" 41 v0;
  let path = Filename.concat dir (key ^ ".memo") in
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub data 0 (String.length data - 4));
  close_out oc;
  let c1 = Cache.create ~dir () in
  let v1, cached1 = Cache.find_or_add c1 key (fun () -> 7) in
  Alcotest.(check int) "recomputed" 7 v1;
  Alcotest.(check bool) "treated as miss" false cached1;
  let c2 = Cache.create ~dir () in
  let v2, cached2 = Cache.find_or_add c2 key (fun () -> 9) in
  Alcotest.(check int) "repaired on disk" 7 v2;
  Alcotest.(check bool) "hit after repair" true cached2

let test_cache_concurrent_hammer () =
  (* Many domains racing on few keys: every returned value must be right
     and the totals must balance. *)
  let c = Cache.create () in
  let keys = List.init 8 string_of_int in
  let work = List.concat (List.init 25 (fun _ -> keys)) in
  let results =
    supervised ~jobs:4
      ~f:(fun k -> fst (Cache.find_or_add c k (fun () -> int_of_string k)))
      work
  in
  List.iter2
    (fun k v -> Alcotest.(check int) ("key " ^ k) (int_of_string k) v)
    work results;
  let s = Cache.stats c in
  Alcotest.(check int) "every lookup counted" (List.length work)
    (s.Cache.hits + s.Cache.misses)

let test_cache_reset_stats () =
  let c = Cache.create () in
  let _ = Cache.find_or_add c "k" (fun () -> 0) in
  Cache.reset_stats c;
  let s = Cache.stats c in
  Alcotest.(check (pair int int)) "zeroed" (0, 0) (s.Cache.hits, s.Cache.misses);
  Alcotest.(check bool) "entry kept" true (snd (Cache.find_or_add c "k" (fun () -> 1)))

let test_cache_lru_entry_cap () =
  let c = Cache.create ~max_entries:2 () in
  let add k = ignore (Cache.find_or_add c k (fun () -> k)) in
  add "a";
  add "b";
  add "c";
  Alcotest.(check int) "resident capped" 2 (Cache.resident_entries c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  (* "a" is the least recently used: it must be the evicted one.  With
     no disk behind the cache, it recomputes as a miss. *)
  Alcotest.(check bool) "b survived" true
    (snd (Cache.find_or_add c "b" (fun () -> "wrong")));
  Alcotest.(check bool) "a evicted" false
    (snd (Cache.find_or_add c "a" (fun () -> "a")))

let test_cache_lru_touch_on_hit () =
  let c = Cache.create ~max_entries:2 () in
  let add k = ignore (Cache.find_or_add c k (fun () -> k)) in
  add "a";
  add "b";
  (* Touch "a" so "b" becomes the LRU victim. *)
  ignore (Cache.find_or_add c "a" (fun () -> "wrong"));
  add "c";
  Alcotest.(check bool) "a kept (recently used)" true
    (snd (Cache.find_or_add c "a" (fun () -> "wrong")));
  Alcotest.(check bool) "b evicted" false
    (snd (Cache.find_or_add c "b" (fun () -> "b")))

let test_cache_byte_cap_evicts_to_disk () =
  let dir = fresh_temp_dir () in
  let big = String.make 4096 'x' in
  let c = Cache.create ~dir ~max_bytes:6000 () in
  ignore (Cache.find_or_add c (Blob.digest [ "one" ]) (fun () -> big));
  ignore (Cache.find_or_add c (Blob.digest [ "two" ]) (fun () -> big));
  Alcotest.(check bool) "byte cap enforced" true
    (Cache.resident_bytes c <= 6000);
  Alcotest.(check bool) "evicted something" true (Cache.evictions c >= 1);
  (* The demoted entry was persisted at add time: looking it up again is
     a disk hit, not a recompute. *)
  let v, cached =
    Cache.find_or_add c (Blob.digest [ "one" ]) (fun () -> "recomputed")
  in
  Alcotest.(check string) "demoted value intact" big v;
  Alcotest.(check bool) "served from disk" true cached

let test_cache_rejects_bad_caps () =
  Alcotest.check_raises "entries" (Invalid_argument "Cache.create: max_entries < 1")
    (fun () -> ignore (Cache.create ~max_entries:0 ()));
  Alcotest.check_raises "bytes" (Invalid_argument "Cache.create: max_bytes < 1")
    (fun () -> ignore (Cache.create ~max_bytes:0 ()))

(* --- pareto -------------------------------------------------------------- *)

let test_dominates () =
  Alcotest.(check bool) "strictly better" true
    (Pareto.dominates [| 1.0; 2.0 |] [| 2.0; 2.0 |]);
  Alcotest.(check bool) "equal does not dominate" false
    (Pareto.dominates [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  Alcotest.(check bool) "trade-off does not dominate" false
    (Pareto.dominates [| 1.0; 3.0 |] [| 2.0; 2.0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Pareto.dominates: objective vectors of different lengths")
    (fun () -> ignore (Pareto.dominates [| 1.0 |] [| 1.0; 2.0 |]))

let test_frontier () =
  let items =
    [ ("a", [| 1.0; 4.0 |]); ("b", [| 2.0; 2.0 |]); ("c", [| 4.0; 1.0 |]);
      ("d", [| 3.0; 3.0 |]); (* dominated by b *)
      ("e", [| 2.0; 2.0 |]) (* duplicate of b: stays *) ]
  in
  let names = List.map fst (Pareto.frontier ~objectives:snd items) in
  Alcotest.(check (list string)) "non-dominated, input order"
    [ "a"; "b"; "c"; "e" ] names

let test_frontier_stability () =
  let items = [ ("x", [| 1.0 |]); ("y", [| 1.0 |]); ("z", [| 1.0 |]) ] in
  Alcotest.(check (list string)) "ties keep input order" [ "x"; "y"; "z" ]
    (List.map fst (Pareto.frontier ~objectives:snd items))

let test_sort_lexicographic () =
  let items =
    [ ("b", [| 1.0; 3.0 |]); ("c", [| 2.0; 0.0 |]); ("a", [| 1.0; 2.0 |]) ]
  in
  Alcotest.(check (list string)) "ascending lexicographic" [ "a"; "b"; "c" ]
    (List.map fst (Pareto.sort ~objectives:snd items))

let test_rank_layers () =
  let items =
    [ ("front", [| 1.0; 1.0 |]); ("mid", [| 2.0; 2.0 |]);
      ("back", [| 3.0; 3.0 |]); ("front2", [| 0.5; 4.0 |]) ]
  in
  let ranks =
    List.map (fun ((name, _), depth) -> (name, depth))
      (Pareto.rank ~objectives:snd items)
  in
  Alcotest.(check (list (pair string int)))
    "non-dominated sorting depths"
    [ ("front", 0); ("mid", 1); ("back", 2); ("front2", 0) ]
    ranks

(* --- candidates ---------------------------------------------------------- *)

let test_enumerate_order_and_count () =
  let cs =
    Candidate.enumerate ~seeds:[ 1; 2 ]
      ~models:[ Core.Model.Model1; Core.Model.Model2 ] ()
  in
  Alcotest.(check int) "2 seeds x 3 biases x 2 models" 12 (List.length cs);
  Alcotest.(check (list string)) "fixed enumeration order"
    [ "seed1/balanced/Model1"; "seed1/balanced/Model2";
      "seed1/local/Model1"; "seed1/local/Model2";
      "seed1/global/Model1"; "seed1/global/Model2";
      "seed2/balanced/Model1"; "seed2/balanced/Model2";
      "seed2/local/Model1"; "seed2/local/Model2";
      "seed2/global/Model1"; "seed2/global/Model2" ]
    (List.map Candidate.label cs);
  Alcotest.(check bool) "enumeration order agrees with compare" true
    (List.sort Candidate.compare cs = cs)

let test_bias_names_round_trip () =
  List.iter
    (fun b ->
      Alcotest.(check bool) (Candidate.bias_name b) true
        (Candidate.bias_of_string (Candidate.bias_name b) = Some b))
    Candidate.all_biases;
  Alcotest.(check bool) "unknown rejected" true
    (Candidate.bias_of_string "sideways" = None)

(* --- evaluation + sweeps ------------------------------------------------- *)

let fig2 = Workloads.Smallspecs.fig2

let small_config jobs =
  {
    Sweep.default_config with
    Sweep.seeds = [ 1; 2 ];
    steps = 600;
    jobs;
  }

let result_fingerprint (r : Evaluate.result) =
  let label = Candidate.label r.Evaluate.r_candidate in
  match r.Evaluate.r_outcome with
  | Error f ->
    label ^ ":error:" ^ Evaluate.failure_kind f ^ ":"
    ^ Evaluate.failure_message f
  | Ok m ->
    Printf.sprintf "%s:%d/%d:%.6f:%.6f:%d:%d" label m.Evaluate.e_locals
      m.Evaluate.e_globals m.Evaluate.e_max_bus_rate m.Evaluate.e_growth
      m.Evaluate.e_pins m.Evaluate.e_gates

let test_sweep_independent_of_jobs () =
  let fp jobs =
    let sw = Sweep.run (small_config jobs) fig2 in
    ( List.map result_fingerprint sw.Sweep.sw_results,
      List.map result_fingerprint sw.Sweep.sw_frontier )
  in
  let seq = fp 1 in
  List.iter
    (fun jobs ->
      let par = fp jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "results at jobs=%d" jobs)
        (fst seq) (fst par);
      Alcotest.(check (list string))
        (Printf.sprintf "frontier at jobs=%d" jobs)
        (snd seq) (snd par))
    [ 2; 4 ]

let test_sweep_metrics_sane () =
  let sw = Sweep.run (small_config 1) fig2 in
  Alcotest.(check int) "24 candidates" 24 (List.length sw.Sweep.sw_results);
  Alcotest.(check bool) "frontier non-empty" true (sw.Sweep.sw_frontier <> []);
  List.iter
    (fun (r : Evaluate.result) ->
      match r.Evaluate.r_outcome with
      | Error f ->
        Alcotest.failf "candidate failed: %s" (Evaluate.failure_message f)
      | Ok m ->
        Alcotest.(check bool) "check ok" true m.Evaluate.e_check_ok;
        Alcotest.(check bool) "growth > 1" true (m.Evaluate.e_growth > 1.0);
        Alcotest.(check bool) "rate >= 0" true (m.Evaluate.e_max_bus_rate >= 0.0);
        Alcotest.(check bool) "pins > 0" true (m.Evaluate.e_pins > 0);
        Alcotest.(check int) "lint-clean output" 0 m.Evaluate.e_lint_errors;
        Alcotest.(check bool) "lint warnings counted" true
          (m.Evaluate.e_lint_warnings >= 0))
    sw.Sweep.sw_results

let test_sweep_frontier_is_sound () =
  (* No kept design may be dominated by any evaluated design, and every
     dropped design must be dominated by some kept one or failed. *)
  let sw = Sweep.run (small_config 1) fig2 in
  let obj (r : Evaluate.result) =
    match r.Evaluate.r_outcome with
    | Ok m -> Sweep.objectives m
    | Error _ -> [| infinity; infinity; infinity |]
  in
  List.iter
    (fun kept ->
      List.iter
        (fun other ->
          Alcotest.(check bool) "kept design undominated" false
            (Pareto.dominates (obj other) (obj kept)))
        sw.Sweep.sw_results)
    sw.Sweep.sw_frontier;
  let on_frontier r =
    List.exists
      (fun k ->
        Candidate.equal k.Evaluate.r_candidate r.Evaluate.r_candidate)
      sw.Sweep.sw_frontier
  in
  List.iter
    (fun r ->
      if Result.is_ok r.Evaluate.r_outcome && not (on_frontier r) then
        Alcotest.(check bool)
          ("dropped design dominated: " ^ Candidate.label r.Evaluate.r_candidate)
          true
          (List.exists (fun k -> Pareto.dominates (obj k) (obj r))
             sw.Sweep.sw_frontier))
    sw.Sweep.sw_results

let test_repeated_sweep_hits_cache () =
  let cache = Cache.create () in
  let _first = Sweep.run ~cache (small_config 1) fig2 in
  let again = Sweep.run ~cache (small_config 2) fig2 in
  Alcotest.(check int) "no misses on the repeat" 0 again.Sweep.sw_misses;
  Alcotest.(check int) "every candidate hit" 24 again.Sweep.sw_hits;
  List.iter
    (fun (r : Evaluate.result) ->
      Alcotest.(check bool)
        ("cached: " ^ Candidate.label r.Evaluate.r_candidate)
        true r.Evaluate.r_cached)
    again.Sweep.sw_results

let test_persistent_sweep_across_cache_instances () =
  let dir = fresh_temp_dir () in
  let first = Sweep.run ~cache:(Cache.create ~dir ()) (small_config 1) fig2 in
  let again = Sweep.run ~cache:(Cache.create ~dir ()) (small_config 1) fig2 in
  Alcotest.(check int) "cold run misses" 24 first.Sweep.sw_misses;
  Alcotest.(check int) "warm process hits everything" 0 again.Sweep.sw_misses;
  Alcotest.(check (list string)) "identical results from disk"
    (List.map result_fingerprint first.Sweep.sw_results)
    (List.map result_fingerprint again.Sweep.sw_results)

let test_cache_key_is_content_hashed () =
  let ctx = Evaluate.make_ctx fig2 in
  let c seed model =
    { Candidate.c_seed = seed; c_bias = Partitioning.Design_search.Balanced;
      c_model = model; c_n_parts = 2; c_steps = 600 }
  in
  let digest = Evaluate.spec_digest fig2 in
  let p1 = Evaluate.partition_of ctx (c 1 Core.Model.Model1) in
  let key seed model =
    Evaluate.cache_key ~spec_digest:digest
      ~partition:(Evaluate.partition_of ctx (c seed model))
      ~model
  in
  Alcotest.(check string) "same (spec, partition, model) -> same key"
    (key 1 Core.Model.Model1) (key 1 Core.Model.Model1);
  Alcotest.(check bool) "model changes the key" true
    (key 1 Core.Model.Model1 <> key 1 Core.Model.Model2);
  Alcotest.(check bool) "spec digest changes the key" true
    (Evaluate.cache_key ~spec_digest:"other" ~partition:p1
       ~model:Core.Model.Model1
    <> key 1 Core.Model.Model1)

let test_reports_mention_frontier () =
  let sw = Sweep.run (small_config 1) fig2 in
  let text = Sweep.to_text ~top:5 sw in
  let json = Sweep.to_json sw in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "text mentions the frontier" true
    (contains ~sub:"Pareto frontier" text);
  Alcotest.(check bool) "text truncates" true
    (contains ~sub:"more candidates" text);
  Alcotest.(check bool) "json has pareto" true
    (contains ~sub:"\"pareto\":[{" json);
  Alcotest.(check bool) "json has hit rate" true
    (contains ~sub:"\"hit_rate\":" json)

(* --- checkpoint journal -------------------------------------------------- *)

module Journal = Checkpoint.Journal

let fresh_journal_path () =
  Filename.concat (fresh_temp_dir ()) "sweep.journal"

let test_journal_round_trip () =
  let path = fresh_journal_path () in
  let j = Journal.open_ ~path ~meta:"m1" in
  Journal.append j ~key:"a" "1";
  Journal.append j ~key:"b" "2";
  Journal.append j ~key:"a" "3";
  Alcotest.(check (option string)) "last record wins" (Some "3")
    (Journal.find j "a");
  Journal.close j;
  let j2 = Journal.open_ ~path ~meta:"m1" in
  Alcotest.(check int) "2 keys after replay" 2 (Journal.length j2);
  Alcotest.(check (option string)) "a replays" (Some "3") (Journal.find j2 "a");
  Alcotest.(check (option string)) "b replays" (Some "2") (Journal.find j2 "b");
  Alcotest.(check (list (pair string string))) "entries deduped, append order"
    [ ("a", "3"); ("b", "2") ]
    (Journal.entries j2);
  Journal.close j2

let file_size path = (Unix.stat path).Unix.st_size

let test_journal_truncates_torn_tail () =
  let path = fresh_journal_path () in
  let j = Journal.open_ ~path ~meta:"m1" in
  Journal.append j ~key:"a" "1";
  Journal.append j ~key:"b" "2";
  let good = file_size path in
  Journal.append j ~key:"c" "3";
  Journal.close j;
  (* A SIGKILL mid-write leaves a torn final record: model it by cutting
     the last record short. *)
  Unix.truncate path (file_size path - 5);
  let j2 = Journal.open_ ~path ~meta:"m1" in
  Alcotest.(check int) "torn record dropped" 2 (Journal.length j2);
  Alcotest.(check (option string)) "intact prefix kept" (Some "2")
    (Journal.find j2 "b");
  Alcotest.(check int) "file truncated back to last good record" good
    (file_size path);
  (* The journal must still be appendable after recovery. *)
  Journal.append j2 ~key:"d" "4";
  Journal.close j2;
  let j3 = Journal.open_ ~path ~meta:"m1" in
  Alcotest.(check (list (pair string string))) "post-recovery appends survive"
    [ ("a", "1"); ("b", "2"); ("d", "4") ]
    (Journal.entries j3);
  Journal.close j3

let test_journal_checksum_stops_replay () =
  let path = fresh_journal_path () in
  let j = Journal.open_ ~path ~meta:"m1" in
  Journal.append j ~key:"a" "1";
  let after_a = file_size path in
  Journal.append j ~key:"b" "2";
  Journal.append j ~key:"c" "3";
  Journal.close j;
  (* Rot one byte inside b's record: replay must stop there, keeping a
     and dropping both b and the (intact) c behind it. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (after_a + 21) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  let j2 = Journal.open_ ~path ~meta:"m1" in
  Alcotest.(check int) "replay stops at first bad record" 1
    (Journal.length j2);
  Alcotest.(check (option string)) "prefix intact" (Some "1")
    (Journal.find j2 "a");
  Alcotest.(check (option string)) "rotted record gone" None
    (Journal.find j2 "b");
  Journal.close j2

let test_journal_meta_mismatch_refuses () =
  let path = fresh_journal_path () in
  let j = Journal.open_ ~path ~meta:"m1" in
  Journal.append j ~key:"a" "1";
  Journal.close j;
  (match Journal.open_ ~path ~meta:"m2" with
  | _ -> Alcotest.fail "meta mismatch must refuse to resume"
  | exception Journal.Journal_error _ -> ());
  (* A non-journal file must be rejected, not replayed. *)
  let garbage = fresh_journal_path () in
  let oc = open_out_bin garbage in
  output_string oc "definitely not a journal";
  close_out oc;
  match Journal.open_ ~path:garbage ~meta:"m1" with
  | _ -> Alcotest.fail "garbage file must be rejected"
  | exception Journal.Journal_error _ -> ()

let test_journal_closed_append_raises () =
  let path = fresh_journal_path () in
  let j = Journal.open_ ~path ~meta:"m1" in
  Journal.close j;
  match Journal.append j ~key:"a" "1" with
  | () -> Alcotest.fail "append on a closed journal must raise"
  | exception Journal.Journal_error _ -> ()

(* --- exhaustive recovery: every truncation, every flipped byte ---------- *)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* [data] cut at every offset, and [data] with each byte XORed with 0xFF,
   each tagged with the offset of the first damaged byte. *)
let damaged data =
  List.init (String.length data) (fun n -> (n, String.sub data 0 n))
  @ List.init (String.length data) (fun i ->
        ( i,
          String.mapi
            (fun j c -> if j = i then Char.chr (Char.code c lxor 0xff) else c)
            data ))

let test_journal_exhaustive_recovery () =
  let path = fresh_journal_path () in
  let records = [ ("a", "1"); ("b", String.make 40 'b'); ("c", "3") ] in
  let j = Journal.open_ ~path ~meta:"m1" in
  let meta_end = file_size path in
  let ends =
    List.map
      (fun (key, blob) -> Journal.append j ~key blob; file_size path)
      records
  in
  Journal.close j;
  let good = read_bytes path in
  let magic_len = 16 in
  List.iteri
    (fun case (n, data) ->
      (* Damage at offset [n] keeps exactly the records that end by [n]. *)
      let intact =
        List.filteri (fun i _ -> List.nth ends i <= n) records
      in
      let label = Printf.sprintf "damage at %d of %d" n (String.length good) in
      (* A new file per case: rewriting one file in place makes some file
         systems flush it on every later truncate or unlink. *)
      let path = Printf.sprintf "%s.%d" path case in
      write_bytes path data;
      (match
         check_allocation ~label ~size:(String.length data) (fun () ->
             Journal.open_ ~path ~meta:"m1")
       with
      | j ->
        let replayed = Journal.entries j in
        Journal.close j;
        if n < magic_len then Alcotest.failf "%s: damaged magic accepted" label;
        (* A whole but damaged meta frame is refused, never truncated. *)
        if case >= String.length good && n < meta_end then
          Alcotest.failf "%s: damaged meta accepted" label;
        Alcotest.(check (list (pair string string))) label intact replayed
      | exception Journal.Journal_error _ ->
        if n >= meta_end then
          Alcotest.failf "%s: refused with magic and meta intact" label;
        Alcotest.(check string) (label ^ ": refused file untouched") data
          (read_bytes path));
      Sys.remove path)
    (damaged good)

let test_cache_exhaustive_recovery () =
  let dir = fresh_temp_dir () in
  let key = Blob.digest [ "exhaustive" ] in
  let value = [ "deep"; "value" ] in
  ignore (Cache.find_or_add (Cache.create ~dir ()) key (fun () -> value));
  let file = key ^ ".memo" in
  let good = read_bytes (Filename.concat dir file) in
  List.iter
    (fun (n, data) ->
      let label = Printf.sprintf "damage at %d of %d" n (String.length good) in
      (* A new directory per case, as for the journal above. *)
      let dir = fresh_temp_dir () in
      write_bytes (Filename.concat dir file) data;
      let v, cached =
        check_allocation ~label ~size:(String.length data) (fun () ->
            Cache.find_or_add (Cache.create ~dir ()) key (fun () -> []))
      in
      if cached then Alcotest.(check (list string)) label value v
      else Alcotest.(check (list string)) (label ^ ": miss") [] v;
      Sys.remove (Filename.concat dir file);
      Sys.rmdir dir)
    (damaged good)

(* [blob] as another build would have written it: same value, other
   stamp. *)
let other_build blob =
  let n = String.length Blob.stamp in
  String.make n '0' ^ String.sub blob n (String.length blob - n)

let test_cache_other_build_misses () =
  let dir = fresh_temp_dir () in
  let key = Blob.digest [ "other-build" ] in
  ignore (Cache.find_or_add (Cache.create ~dir ()) key (fun () -> 41));
  let path = Filename.concat dir (key ^ ".memo") in
  (match Blob.unframe (read_bytes path) with
  | Some blob -> write_bytes path (Blob.frame (other_build blob))
  | None -> Alcotest.fail "cache file is not one frame");
  let v, cached = Cache.find_or_add (Cache.create ~dir ()) key (fun () -> 7) in
  Alcotest.(check bool) "another build's entry is a miss" false cached;
  Alcotest.(check int) "recomputed" 7 v

(* --- resilience: deadlines, crashes, resume ------------------------------ *)

let test_evaluate_deadline_times_out_uncached () =
  let ctx = Evaluate.make_ctx fig2 in
  let cache = Cache.create () in
  let c =
    { Candidate.c_seed = 1; c_bias = Partitioning.Design_search.Balanced;
      c_model = Core.Model.Model1; c_n_parts = 2; c_steps = 600 }
  in
  let r = Evaluate.run ~cache ~deadline_s:0.0 ctx c in
  (match r.Evaluate.r_outcome with
  | Error (Evaluate.Timed_out _) -> ()
  | _ -> Alcotest.fail "deadline 0 must time the candidate out");
  Alcotest.(check bool) "not served from cache" false r.Evaluate.r_cached;
  Alcotest.(check bool) "timeout is transient" false
    (Evaluate.definitive r.Evaluate.r_outcome);
  (* Nothing transient may be cached: the unhurried evaluation must
     recompute from scratch and succeed. *)
  let key =
    Evaluate.cache_key
      ~spec_digest:(Evaluate.spec_digest fig2)
      ~partition:(Evaluate.partition_of ctx c)
      ~model:Core.Model.Model1
  in
  Alcotest.(check bool) "nothing cached by the timeout" false
    (Cache.mem cache key);
  let r2 = Evaluate.run ~cache ctx c in
  Alcotest.(check bool) "recomputes fine without a deadline" true
    (Result.is_ok r2.Evaluate.r_outcome)

(* div_zero.sc's fault-free run divides by zero, so its robustness
   campaign is refused with [Campaign_error]: the candidate still
   evaluates, with robustness 0.0. *)
let test_uncampaignable_design_reads_zero_robustness () =
  let spec =
    match Spec.Parser.program_of_string (read_bytes "fixtures/div_zero.sc") with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let c =
    { Candidate.c_seed = 1; c_bias = Partitioning.Design_search.Balanced;
      c_model = Core.Model.Model1; c_n_parts = 2; c_steps = 10 }
  in
  match (Evaluate.run (Evaluate.make_ctx spec) c).Evaluate.r_outcome with
  | Ok m -> Alcotest.(check (float 0.0)) "robustness" 0.0 m.Evaluate.e_robustness
  | Error f -> Alcotest.fail (Evaluate.failure_message f)

let test_sweep_deadline_degrades_not_aborts () =
  let config = { (small_config 2) with Sweep.deadline_s = Some 0.0 } in
  let sw = Sweep.run config fig2 in
  Alcotest.(check int) "all candidates reported" 24
    (List.length sw.Sweep.sw_results);
  Alcotest.(check (float 1e-9)) "zero coverage" 0.0 sw.Sweep.sw_coverage;
  Alcotest.(check (list (pair string int))) "timeout taxonomy"
    [ ("timeout", 24) ]
    sw.Sweep.sw_failures;
  Alcotest.(check (list string)) "no frontier from timeouts" []
    (List.map result_fingerprint sw.Sweep.sw_frontier);
  let json = Sweep.to_json sw in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "json coverage zero" true
    (contains ~sub:"\"coverage\":0.0000" json);
  Alcotest.(check bool) "json timeout taxonomy" true
    (contains ~sub:"\"failures\":{\"timeout\":24}" json)

let crashing_evaluate ~cache ~victim =
  let ctx = Evaluate.make_ctx fig2 in
  fun c ->
    if Candidate.label c = victim then failwith "boom"
    else Evaluate.run ~cache ctx c

let test_sweep_survives_crashing_candidate () =
  let victim = "seed1/balanced/Model1" in
  let cache = Cache.create () in
  let config =
    { (small_config 2) with Sweep.retries = 1; backoff_s = 0.001 }
  in
  let sw =
    Sweep.run ~cache ~evaluate:(crashing_evaluate ~cache ~victim) config fig2
  in
  Alcotest.(check int) "all candidates reported" 24
    (List.length sw.Sweep.sw_results);
  Alcotest.(check (float 1e-9)) "coverage excludes the crash" (23.0 /. 24.0)
    sw.Sweep.sw_coverage;
  Alcotest.(check (list (pair string int))) "crash taxonomy" [ ("crash", 1) ]
    sw.Sweep.sw_failures;
  Alcotest.(check bool) "frontier from the survivors" true
    (sw.Sweep.sw_frontier <> []);
  let crashed =
    List.find
      (fun r -> Candidate.label r.Evaluate.r_candidate = victim)
      sw.Sweep.sw_results
  in
  (match crashed.Evaluate.r_outcome with
  | Error (Evaluate.Crashed { cr_attempts; cr_exn; _ }) ->
    Alcotest.(check int) "first try + 1 retry" 2 cr_attempts;
    Alcotest.(check bool) "exception text kept" true
      (String.length cr_exn > 0)
  | _ -> Alcotest.fail "victim must surface as Crashed");
  List.iter
    (fun (r : Evaluate.result) ->
      if Candidate.label r.Evaluate.r_candidate <> victim then
        Alcotest.(check bool)
          ("survivor ok: " ^ Candidate.label r.Evaluate.r_candidate)
          true
          (Result.is_ok r.Evaluate.r_outcome))
    sw.Sweep.sw_results

let test_sweep_journals_only_definitive () =
  let victim = "seed1/balanced/Model1" in
  let cache = Cache.create () in
  let path = fresh_journal_path () in
  let config =
    { (small_config 1) with Sweep.retries = 0; backoff_s = 0.001 }
  in
  let j = Journal.open_ ~path ~meta:(Sweep.journal_meta config fig2) in
  let sw =
    Sweep.run ~cache ~journal:j
      ~evaluate:(crashing_evaluate ~cache ~victim)
      config fig2
  in
  Alcotest.(check (list (pair string int))) "crash surfaced" [ ("crash", 1) ]
    sw.Sweep.sw_failures;
  Alcotest.(check int) "crash not journaled" 23 (Journal.length j);
  Alcotest.(check bool) "victim key absent" true
    (Journal.find j victim = None);
  Journal.close j;
  (* Resuming replays the 23 definitive outcomes and retries the crash —
     now with a healthy evaluator, converging to full coverage. *)
  let j2 = Journal.open_ ~path ~meta:(Sweep.journal_meta config fig2) in
  let resumed = Sweep.run ~cache:(Cache.create ()) ~journal:j2 config fig2 in
  Journal.close j2;
  Alcotest.(check int) "replayed all definitive outcomes" 23
    resumed.Sweep.sw_replayed;
  Alcotest.(check (float 1e-9)) "full coverage after retry" 1.0
    resumed.Sweep.sw_coverage;
  Alcotest.(check (list string)) "resumed results match the crash-free run"
    (List.map result_fingerprint (Sweep.run (small_config 1) fig2).Sweep.sw_results)
    (List.map result_fingerprint resumed.Sweep.sw_results)

let test_sweep_kill_resume_round_trip () =
  let config = small_config 2 in
  let meta = Sweep.journal_meta config fig2 in
  (* The uninterrupted reference run, journaled in full. *)
  let full_path = fresh_journal_path () in
  let jf = Journal.open_ ~path:full_path ~meta in
  let full = Sweep.run ~journal:jf config fig2 in
  Alcotest.(check int) "every definitive outcome journaled" 24
    (Journal.length jf);
  Alcotest.(check int) "nothing replayed on a cold run" 0
    full.Sweep.sw_replayed;
  let recorded = Journal.entries jf in
  Journal.close jf;
  (* Model a SIGKILL after 10 completed candidates: a journal holding
     only a prefix of the records. *)
  let part_path = fresh_journal_path () in
  let jp = Journal.open_ ~path:part_path ~meta in
  List.iteri
    (fun i (key, blob) -> if i < 10 then Journal.append jp ~key blob)
    recorded;
  Journal.close jp;
  let jr = Journal.open_ ~path:part_path ~meta in
  let resumed = Sweep.run ~journal:jr config fig2 in
  Alcotest.(check int) "10 results replayed" 10 resumed.Sweep.sw_replayed;
  Alcotest.(check int) "journal caught back up" 24 (Journal.length jr);
  Journal.close jr;
  Alcotest.(check (list string)) "resumed results bit-identical"
    (List.map result_fingerprint full.Sweep.sw_results)
    (List.map result_fingerprint resumed.Sweep.sw_results);
  Alcotest.(check (list string)) "resumed frontier bit-identical"
    (List.map result_fingerprint full.Sweep.sw_frontier)
    (List.map result_fingerprint resumed.Sweep.sw_frontier);
  Alcotest.(check (float 1e-9)) "full coverage either way" 1.0
    resumed.Sweep.sw_coverage

let () =
  Alcotest.run "explore"
    [
      ( "pool",
        [
          tc "matches List.map" test_pool_matches_list_map;
          tc "more jobs than items" test_pool_more_jobs_than_items;
          tc "empty/singleton" test_pool_empty_and_singleton;
          tc "rejects jobs<1" test_pool_rejects_bad_jobs;
          tc "deterministic failure" test_pool_exception_is_deterministic;
          tc "runs every item once" test_pool_runs_every_item_once;
        ] );
      ( "supervisor",
        [
          tc "all ok" test_supervise_all_ok;
          tc "quarantines repeat offender"
            test_supervise_quarantines_repeat_offender;
          tc "retries transient failure"
            test_supervise_retries_transient_failure;
          tc "independent of jobs" test_supervise_independent_of_jobs;
          tc "backoff doubles and caps" test_backoff_delay_doubles_and_caps;
        ] );
      ( "cache",
        [
          tc "computes once" test_cache_computes_once;
          tc "distinct keys" test_cache_distinct_keys;
          tc "persists across instances" test_cache_persists_across_instances;
          tc "tolerates corrupt files" test_cache_tolerates_corrupt_files;
          tc "tolerates corrupt blobs" test_cache_tolerates_corrupt_blob;
          tc "concurrent hammer" test_cache_concurrent_hammer;
          tc "reset stats" test_cache_reset_stats;
          tc "LRU entry cap" test_cache_lru_entry_cap;
          tc "LRU touch on hit" test_cache_lru_touch_on_hit;
          tc "byte cap demotes to disk" test_cache_byte_cap_evicts_to_disk;
          tc "rejects bad caps" test_cache_rejects_bad_caps;
          tc "exhaustive truncate and flip" test_cache_exhaustive_recovery;
          tc "another build's entry misses" test_cache_other_build_misses;
        ] );
      ( "pareto",
        [
          tc "dominates" test_dominates;
          tc "frontier" test_frontier;
          tc "frontier stability" test_frontier_stability;
          tc "lexicographic sort" test_sort_lexicographic;
          tc "rank layers" test_rank_layers;
        ] );
      ( "candidate",
        [
          tc "enumerate order/count" test_enumerate_order_and_count;
          tc "bias names round-trip" test_bias_names_round_trip;
        ] );
      ( "sweep",
        [
          tc "independent of jobs" test_sweep_independent_of_jobs;
          tc "metrics sane" test_sweep_metrics_sane;
          tc "frontier sound" test_sweep_frontier_is_sound;
          tc "repeated sweep hits cache" test_repeated_sweep_hits_cache;
          tc "persistent across processes" test_persistent_sweep_across_cache_instances;
          tc "content-hashed cache key" test_cache_key_is_content_hashed;
          tc "reports" test_reports_mention_frontier;
        ] );
      ( "journal",
        [
          tc "round-trip" test_journal_round_trip;
          tc "truncates torn tail" test_journal_truncates_torn_tail;
          tc "checksum stops replay" test_journal_checksum_stops_replay;
          tc "meta mismatch refuses" test_journal_meta_mismatch_refuses;
          tc "closed append raises" test_journal_closed_append_raises;
          tc "exhaustive truncate and flip" test_journal_exhaustive_recovery;
        ] );
      ( "resilience",
        [
          tc "deadline times out uncached"
            test_evaluate_deadline_times_out_uncached;
          tc "uncampaignable design reads robustness 0"
            test_uncampaignable_design_reads_zero_robustness;
          tc "sweep deadline degrades" test_sweep_deadline_degrades_not_aborts;
          tc "sweep survives crash" test_sweep_survives_crashing_candidate;
          tc "journals only definitive" test_sweep_journals_only_definitive;
          tc "kill-resume round-trip" test_sweep_kill_resume_round_trip;
        ] );
    ]
