(** The shared record codec.  See the interface for the frame layout. *)

let header = 20  (* u32 length + MD5 *)

let length_field s = Int32.to_int (String.get_int32_be s 0) land 0xffff_ffff

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (header + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string (Digest.string payload) 0 b 4 16;
  Bytes.blit_string payload 0 b header len;
  Bytes.unsafe_to_string b

let checked ~digest payload =
  if String.equal (Digest.string payload) digest then Some payload else None

let unframe data =
  let n = String.length data in
  if n < header || length_field data <> n - header then None
  else
    checked ~digest:(String.sub data 4 16) (String.sub data header (n - header))

let input_frame ic =
  try
    let hdr = really_input_string ic header in
    let len = length_field hdr in
    if len > in_channel_length ic - pos_in ic then None
    else checked ~digest:(String.sub hdr 4 16) (really_input_string ic len)
  with End_of_file -> None

let stamp = Build_stamp.stamp

let to_blob v = stamp ^ Marshal.to_string v []

let of_blob blob =
  if not (String.starts_with ~prefix:stamp blob) then None
  else
    match Marshal.from_string blob (String.length stamp) with
    | v -> Some v
    | exception (Failure _ | Invalid_argument _) -> None

let encode_pair key blob = Marshal.to_string (key, blob) []

let decode_pair payload =
  match (Marshal.from_string payload 0 : string * string) with
  | kv -> Some kv
  | exception (Failure _ | Invalid_argument _) -> None

let digest components =
  Digest.to_hex (Digest.string (String.concat "\x00" components))

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> ()
  end
