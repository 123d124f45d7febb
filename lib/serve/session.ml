(** Daemon shared state; see the interface. *)

type elab = {
  el_digest : string;
  el_program : Spec.Ast.program;
  el_locations : Spec.Parser.locations;
  el_graph : Agraph.Access_graph.t;
  el_ctx : Explore.Evaluate.ctx;
}

type t = {
  s_cache : Explore.Cache.t;
  s_elab : (string, elab) Hashtbl.t;
  s_last_use : (string, int) Hashtbl.t;
  mutable s_tick : int;
  mutable s_hits : int;
  mutable s_misses : int;
  s_mutex : Mutex.t;
}

let elab_entries = 64

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
    s_last_use = Hashtbl.create 64;
    s_tick = 0;
    s_hits = 0;
    s_misses = 0;
    s_mutex = Mutex.create ();
  }

let cache t = t.s_cache

let locked t f =
  Mutex.lock t.s_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.s_mutex) f

let touch t digest =
  t.s_tick <- t.s_tick + 1;
  Hashtbl.replace t.s_last_use digest t.s_tick

let evict_to_cap t =
  while Hashtbl.length t.s_elab > elab_entries do
    let victim =
      Hashtbl.fold
        (fun key tick acc ->
          match acc with
          | Some (_, best) when best <= tick -> acc
          | _ -> Some (key, tick))
        t.s_last_use None
    in
    match victim with
    | None -> Hashtbl.reset t.s_elab (* unreachable: tables move together *)
    | Some (key, _) ->
      Hashtbl.remove t.s_elab key;
      Hashtbl.remove t.s_last_use key
  done

let elaborate t ~source =
  let digest = Digest.to_hex (Digest.string source) in
  match
    locked t (fun () ->
        match Hashtbl.find_opt t.s_elab digest with
        | Some e ->
          t.s_hits <- t.s_hits + 1;
          touch t digest;
          Some e
        | None ->
          t.s_misses <- t.s_misses + 1;
          None)
  with
  | Some e -> Ok e
  | None -> (
    (* Elaborate outside the lock: parsing and graph derivation are the
       expensive part and must not serialize unrelated connections.  Two
       racing threads may both elaborate; last insert wins and both
       results are identical. *)
    match Spec.Parser.valid_program_of_string source with
    | Error msg -> Error msg
    | Ok (p, locs) ->
      let g = Agraph.Access_graph.of_program p in
      let ctx = Explore.Evaluate.make_ctx p in
      let e =
        {
          el_digest = digest;
          el_program = p;
          el_locations = locs;
          el_graph = g;
          el_ctx = ctx;
        }
      in
      let e =
        locked t (fun () ->
            match Hashtbl.find_opt t.s_elab digest with
            | Some winner ->
              (* A racing thread elaborated first: keep its value so
                 every job shares one physical program. *)
              touch t digest;
              winner
            | None ->
              Hashtbl.replace t.s_elab digest e;
              touch t digest;
              evict_to_cap t;
              e)
      in
      Ok e)

type stats = {
  st_elab_hits : int;
  st_elab_misses : int;
  st_elab_entries : int;
}

let stats t =
  locked t (fun () ->
      {
        st_elab_hits = t.s_hits;
        st_elab_misses = t.s_misses;
        st_elab_entries = Hashtbl.length t.s_elab;
      })
