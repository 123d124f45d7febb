(** Daemon shared state; see the interface. *)

type elab = {
  el_digest : string;
  el_program : Spec.Ast.program;
  el_locations : Spec.Parser.locations;
  el_ctx : Explore.Evaluate.ctx;
}

(* A memoized refinement and the session tick of its last use. *)
type refined = { r_design : Core.Refiner.t; mutable r_tick : int }

(* One resident elaboration with the refinements derived from it, so
   evicting the elaboration drops them too. *)
type entry = {
  e_elab : elab;
  e_refined : (string, refined) Hashtbl.t;
  mutable e_tick : int;
}

type counts = { mutable hits : int; mutable misses : int }

type t = {
  s_cache : Explore.Cache.t;
  s_elab : (string, entry) Hashtbl.t;
  mutable s_tick : int;
  s_elab_counts : counts;
  s_refined_counts : counts;
  s_mutex : Mutex.t;
}

let elab_entries = 64
let refined_entries = 8

(* A daemon juggles more concurrent programs than a CLI run. *)
let sim_sessions = 8

let create ?cache_dir ?cache_entries ?cache_bytes () =
  Sim.Engine.set_session_cap sim_sessions;
  let s_cache =
    Explore.Cache.create ?dir:cache_dir ?max_entries:cache_entries
      ?max_bytes:cache_bytes ()
  in
  {
    s_cache;
    s_elab = Hashtbl.create 64;
    s_tick = 0;
    s_elab_counts = { hits = 0; misses = 0 };
    s_refined_counts = { hits = 0; misses = 0 };
    s_mutex = Mutex.create ();
  }

let cache t = t.s_cache

let locked t f =
  Mutex.lock t.s_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.s_mutex) f

let tick t =
  t.s_tick <- t.s_tick + 1;
  t.s_tick

(* Drop the least recently used bindings of [tbl] until it holds [cap]. *)
let trim tbl cap tick_of =
  while Hashtbl.length tbl > cap do
    Hashtbl.fold
      (fun key v acc ->
        match acc with
        | Some (_, best) when best <= tick_of v -> acc
        | _ -> Some (key, tick_of v))
      tbl None
    |> Option.iter (fun (key, _) -> Hashtbl.remove tbl key)
  done

(* Look [key] up in [find] under the lock, counting a hit or a miss; on
   a miss compute [make ()] outside the lock, so an expensive derivation
   never serializes unrelated jobs, and [store] the result.  Two racing
   threads may both compute: [store] keeps the first value inserted and
   both get it, so every job shares one physical result. *)
let memo t counts ~find ~store make =
  match
    locked t (fun () ->
        match find () with
        | Some v ->
          counts.hits <- counts.hits + 1;
          Some v
        | None ->
          counts.misses <- counts.misses + 1;
          None)
  with
  | Some v -> Ok v
  | None -> Result.map (fun v -> locked t (fun () -> store v)) (make ())

let elaborate t ~source =
  let digest = Digest.to_hex (Digest.string source) in
  let use e =
    e.e_tick <- tick t;
    e.e_elab
  in
  memo t t.s_elab_counts
    ~find:(fun () -> Option.map use (Hashtbl.find_opt t.s_elab digest))
    ~store:(fun e ->
      match Hashtbl.find_opt t.s_elab digest with
      | Some winner -> use winner
      | None ->
        Hashtbl.replace t.s_elab digest
          { e_elab = e; e_refined = Hashtbl.create 4; e_tick = tick t };
        trim t.s_elab elab_entries (fun e -> e.e_tick);
        e)
    (fun () ->
      Result.map
        (fun (p, locs) ->
          {
            el_digest = digest;
            el_program = p;
            el_locations = locs;
            el_ctx = Explore.Evaluate.make_ctx p;
          })
        (Spec.Parser.valid_program_of_string source))

let refined t elab ~key refine =
  (* The memo of [elab] itself: a job may hold an elaboration that has
     since been evicted (or replaced by a re-elaboration of the same
     source), and that must neither read nor fill another's memo. *)
  let table () =
    match Hashtbl.find_opt t.s_elab elab.el_digest with
    | Some e when e.e_elab == elab -> Some e.e_refined
    | _ -> None
  in
  let use r =
    r.r_tick <- tick t;
    r.r_design
  in
  memo t t.s_refined_counts
    ~find:(fun () ->
      Option.bind (table ()) (fun tbl ->
          Option.map use (Hashtbl.find_opt tbl key)))
    ~store:(fun r ->
      match table () with
      | None -> r
      | Some tbl -> (
        match Hashtbl.find_opt tbl key with
        | Some winner -> use winner
        | None ->
          Hashtbl.replace tbl key { r_design = r; r_tick = tick t };
          trim tbl refined_entries (fun r -> r.r_tick);
          r))
    refine

type stats = {
  st_elab_hits : int;
  st_elab_misses : int;
  st_elab_entries : int;
  st_refined_hits : int;
  st_refined_misses : int;
  st_refined_entries : int;
}

let stats t =
  locked t (fun () ->
      {
        st_elab_hits = t.s_elab_counts.hits;
        st_elab_misses = t.s_elab_counts.misses;
        st_elab_entries = Hashtbl.length t.s_elab;
        st_refined_hits = t.s_refined_counts.hits;
        st_refined_misses = t.s_refined_counts.misses;
        st_refined_entries =
          Hashtbl.fold (fun _ e n -> n + Hashtbl.length e.e_refined) t.s_elab 0;
      })
