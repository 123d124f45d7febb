(** Structured analysis diagnostics.

    Every static check in the code base — the type checker, the
    refinement invariant checks and the lint passes — reports its
    findings as values of {!t}: a stable machine-readable code
    ([RACE001], [PROTO002], ...), a severity, the pass that produced
    it, a behavior path locating the finding in the hierarchy, and a
    human-readable message.  Diagnostics render both as one-line text
    and as JSON, and sort by (severity, code, path, location) so that
    reported lists are stable across runs. *)

type severity = Info | Warning | Error

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

type t = {
  d_code : string;  (** stable code, e.g. ["RACE001"] *)
  d_severity : severity;
  d_pass : string;  (** producing pass or checker, e.g. ["race"] *)
  d_path : string list;
      (** behavior path from the top (or ["procedure f"]); [[]] when the
          finding is program-wide *)
  d_loc : string;  (** offending declaration / statement / expression, or "" *)
  d_message : string;
}

let make ~code ~severity ~pass ?(path = []) ?(loc = "") message =
  { d_code = code; d_severity = severity; d_pass = pass;
    d_path = path; d_loc = loc; d_message = message }

let makef ~code ~severity ~pass ?path ?loc fmt =
  Printf.ksprintf (fun s -> make ~code ~severity ~pass ?path ?loc s) fmt

let compare a b =
  let c = compare (severity_rank a.d_severity) (severity_rank b.d_severity) in
  if c <> 0 then c
  else
    let c = String.compare a.d_code b.d_code in
    if c <> 0 then c
    else
      let c = compare a.d_path b.d_path in
      if c <> 0 then c
      else
        let c = String.compare a.d_loc b.d_loc in
        if c <> 0 then c else String.compare a.d_message b.d_message

let sort ds = List.sort_uniq compare ds

let path_string d = String.concat "/" d.d_path

let to_string d =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (severity_name d.d_severity);
  Buffer.add_string buf "[";
  Buffer.add_string buf d.d_code;
  Buffer.add_string buf "] ";
  if d.d_path <> [] then begin
    Buffer.add_string buf (path_string d);
    Buffer.add_string buf ": "
  end;
  Buffer.add_string buf d.d_message;
  if d.d_loc <> "" then begin
    Buffer.add_string buf " (at ";
    Buffer.add_string buf d.d_loc;
    Buffer.add_string buf ")"
  end;
  Buffer.contents buf

let to_json d =
  Json.(
    Obj
      [
        ("code", String d.d_code);
        ("severity", String (severity_name d.d_severity));
        ("pass", String d.d_pass);
        ("path", List (List.map (fun p -> String p) d.d_path));
        ("loc", String d.d_loc);
        ("message", String d.d_message);
      ])

let count sev ds =
  List.length (List.filter (fun d -> d.d_severity = sev) ds)

let errors ds = List.filter (fun d -> d.d_severity = Error) ds
let has_errors ds = List.exists (fun d -> d.d_severity = Error) ds
