(** Mutex-protected memo table with optional one-file-per-key disk
    persistence and an optional LRU residency cap.  See the interface
    for the concurrency contract.  Values are {!Checkpoint.Blob} blobs
    and each disk file is one frame around one; the blob's build stamp,
    not a version number kept here, makes another build's entries
    misses. *)

type stats = { hits : int; misses : int }

type t = {
  table : (string, string) Hashtbl.t;  (* key -> Checkpoint.Blob blob *)
  lock : Mutex.t;
  dir : string option;
  max_entries : int option;  (* in-memory residency caps; disk is unbounded *)
  max_bytes : int option;
  last_use : (string, int) Hashtbl.t;  (* key -> tick of last touch *)
  mutable tick : int;
  mutable bytes : int;  (* resident payload bytes (keys + blobs) *)
  mutable evictions : int;
  mutable hits : int;
  mutable misses : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?dir ?max_entries ?max_bytes () =
  (match max_entries with
  | Some n when n < 1 -> invalid_arg "Cache.create: max_entries < 1"
  | _ -> ());
  (match max_bytes with
  | Some n when n < 1 -> invalid_arg "Cache.create: max_bytes < 1"
  | _ -> ());
  Option.iter Checkpoint.Blob.mkdir_p dir;
  {
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    dir;
    max_entries;
    max_bytes;
    last_use = Hashtbl.create 64;
    tick = 0;
    bytes = 0;
    evictions = 0;
    hits = 0;
    misses = 0;
  }

let file_of t key =
  Option.map (fun dir -> Filename.concat dir (key ^ ".memo")) t.dir

(* Write-to-temp + rename so concurrent processes never observe a
   half-written entry. *)
let write_file path data =
  let tmp =
    Printf.sprintf "%s.%d.tmp" path (Hashtbl.hash (path, data, Sys.time ()))
  in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc data);
  Sys.rename tmp path

let disk_find t key =
  match file_of t key with
  | None -> None
  | Some path ->
    (try
       Checkpoint.Blob.unframe
         (In_channel.with_open_bin path In_channel.input_all)
     with Sys_error _ -> None)

let disk_add t key blob =
  match file_of t key with
  | None -> ()
  | Some path ->
    (try write_file path (Checkpoint.Blob.frame blob)
     with Sys_error _ -> ())

let entry_bytes key blob = String.length key + String.length blob

(* --- LRU residency (all under the lock) -------------------------------- *)

let touch t key =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.last_use key t.tick

let drop_resident t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some blob ->
    Hashtbl.remove t.table key;
    Hashtbl.remove t.last_use key;
    t.bytes <- t.bytes - entry_bytes key blob

let over_cap t =
  (match t.max_entries with
  | Some cap -> Hashtbl.length t.table > cap
  | None -> false)
  ||
  match t.max_bytes with Some cap -> t.bytes > cap | None -> false

(* Evict least-recently-used entries until back under both caps.  The
   scan is O(resident) per eviction, but the resident set is bounded by
   the cap itself, so sustained traffic amortizes to O(cap) per insert.
   Entries persisted to [dir] were written at add time, so in-memory
   eviction only sheds the resident copy — a later lookup re-promotes it
   from disk ("evict to disk").  Without a [dir] the value is recomputed
   on the next miss. *)
let enforce_caps t =
  while over_cap t && Hashtbl.length t.table > 0 do
    let victim =
      Hashtbl.fold
        (fun key _ acc ->
          let tick =
            Option.value ~default:0 (Hashtbl.find_opt t.last_use key)
          in
          match acc with
          | Some (_, best) when best <= tick -> acc
          | _ -> Some (key, tick))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (key, _) ->
      drop_resident t key;
      t.evictions <- t.evictions + 1
  done

let insert_resident t key blob =
  drop_resident t key;
  Hashtbl.replace t.table key blob;
  t.bytes <- t.bytes + entry_bytes key blob;
  touch t key;
  enforce_caps t

let lookup t ~count key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some blob ->
        touch t key;
        if count then t.hits <- t.hits + 1;
        Some blob
      | None ->
        (match disk_find t key with
        | Some blob ->
          insert_resident t key blob;
          if count then t.hits <- t.hits + 1;
          Some blob
        | None ->
          if count then t.misses <- t.misses + 1;
          None))

(* A truncated or bit-rotted disk entry must read as a miss, not as a
   [Failure] escaping to the caller: evict it from both tiers so the
   recomputed value replaces the damaged file. *)
let evict t key =
  with_lock t (fun () ->
      drop_resident t key;
      match file_of t key with
      | None -> ()
      | Some path -> (try Sys.remove path with Sys_error _ -> ()))

let find_or_add ?(count_stats = true) t key compute =
  let cached =
    match lookup t ~count:count_stats key with
    | Some blob ->
      let v = Checkpoint.Blob.of_blob blob in
      if v = None && count_stats then begin
        (* Account the corrupt entry as the miss it really was. *)
        with_lock t (fun () ->
            t.hits <- t.hits - 1;
            t.misses <- t.misses + 1)
      end;
      v
    | None -> None
  in
  match cached with
  | Some v -> (v, true)
  | None ->
    evict t key;
    let v = compute () in
    let blob = Checkpoint.Blob.to_blob v in
    with_lock t (fun () ->
        insert_resident t key blob;
        disk_add t key blob);
    (v, false)

let mem t key =
  with_lock t (fun () ->
      Hashtbl.mem t.table key || disk_find t key <> None)

let stats t = with_lock t (fun () -> { hits = t.hits; misses = t.misses })

let resident_entries t = with_lock t (fun () -> Hashtbl.length t.table)

let resident_bytes t = with_lock t (fun () -> t.bytes)

let evictions t = with_lock t (fun () -> t.evictions)

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let reset_stats t =
  with_lock t (fun () ->
      t.hits <- 0;
      t.misses <- 0)
