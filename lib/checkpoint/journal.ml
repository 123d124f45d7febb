(** Crash-safe append-only journal.  See the interface for the on-disk
    format and the torn-tail recovery contract. *)

let magic = "coref-journal-1\n"

exception Journal_error of string

type t = {
  j_path : string;
  mutable j_fd : Unix.file_descr option;
  j_table : (string, string) Hashtbl.t;
  mutable j_keys : string list;  (* reversed order of first append *)
  j_lock : Mutex.t;
}

let errorf fmt = Printf.ksprintf (fun s -> raise (Journal_error s)) fmt

(* Read every intact record; stop at the first torn or corrupt one.
   Returns the payloads and the offset just past the last good record. *)
let read_records ~path ic =
  let header =
    try really_input_string ic (String.length magic)
    with End_of_file -> errorf "%s is not a journal: too short" path
  in
  if not (String.equal header magic) then
    errorf "%s is not a journal: bad magic %S" path header;
  let rec go acc good_end =
    match Blob.input_frame ic with
    | Some payload -> go (payload :: acc) (pos_in ic)
    | None -> (List.rev acc, good_end)
  in
  go [] (pos_in ic)

let record_entry t key blob =
  if not (Hashtbl.mem t.j_table key) then t.j_keys <- key :: t.j_keys;
  Hashtbl.replace t.j_table key blob

(* One record is built as a single string so the append is one [write]:
   after a kill the file holds at most one torn record, which replay then
   truncates away. *)
let append_raw fd payload =
  let record = Blob.frame payload in
  let n = String.length record in
  let written = Unix.write_substring fd record 0 n in
  if written <> n then errorf "short write (%d of %d bytes)" written n;
  Unix.fsync fd

let open_file ~path ~meta =
  Blob.mkdir_p (Filename.dirname path);
  let t =
    {
      j_path = path;
      j_fd = None;
      j_table = Hashtbl.create 64;
      j_keys = [];
      j_lock = Mutex.create ();
    }
  in
  let payloads, good_end, size =
    if Sys.file_exists path then
      In_channel.with_open_bin path (fun ic ->
          let payloads, good_end = read_records ~path ic in
          (payloads, good_end, Int64.to_int (In_channel.length ic)))
    else ([], 0, 0)
  in
  begin match payloads with
  | [] ->
    (* A new journal, or one killed before its meta record was whole.  A
       file long enough to hold the whole meta frame was not killed
       there: its meta is damaged, and truncating it would drop every
       record after it. *)
    if size - String.length magic >= String.length (Blob.frame meta) then
      errorf "journal %s has a damaged meta record; it was left untouched"
        path
  | recorded_meta :: entries ->
    if not (String.equal recorded_meta meta) then
      errorf
        "journal %s records a different specification or configuration \
         (meta %s, expected %s) — resume with the original inputs or \
         start a fresh journal"
        path recorded_meta meta;
    List.iter
      (fun payload ->
        (* An undecodable-but-checksummed payload cannot happen short of
           a format change; skip it rather than fail the resume. *)
        match Blob.decode_pair payload with
        | Some (key, blob) -> record_entry t key blob
        | None -> ())
      entries
  end;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  t.j_fd <- Some fd;
  Unix.ftruncate fd good_end;  (* drop the torn tail, if any *)
  ignore (Unix.lseek fd good_end Unix.SEEK_SET);
  if good_end = 0 then
    ignore (Unix.write_substring fd magic 0 (String.length magic));
  if payloads = [] then append_raw fd meta;
  t

let open_ ~path ~meta =
  try open_file ~path ~meta with
  | Sys_error msg -> errorf "cannot open journal %s: %s" path msg
  | Unix.Unix_error (err, _, _) ->
    errorf "cannot open journal %s: %s" path (Unix.error_message err)

let with_lock t f =
  Mutex.lock t.j_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.j_lock) f

let find t key = with_lock t (fun () -> Hashtbl.find_opt t.j_table key)

let append t ~key blob =
  with_lock t (fun () ->
      match t.j_fd with
      | None -> errorf "journal %s is closed" t.j_path
      | Some fd ->
        append_raw fd (Blob.encode_pair key blob);
        record_entry t key blob)

let entries t =
  with_lock t (fun () ->
      (* Append order, each key at its first position with its winning
         (last-recorded) blob. *)
      List.rev_map (fun key -> (key, Hashtbl.find t.j_table key)) t.j_keys)

let length t = with_lock t (fun () -> Hashtbl.length t.j_table)

let close t =
  with_lock t (fun () ->
      match t.j_fd with
      | None -> ()
      | Some fd ->
        t.j_fd <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ()))
