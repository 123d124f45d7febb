(** Shared lint-report rendering; see the interface. *)

open Spec

type target = {
  t_name : string;
  t_phase : Registry.phase;
  t_diags : Diagnostic.t list;
}

let locate ~file locs ds =
  List.map
    (fun (d : Diagnostic.t) ->
      let line =
        match Parser.line_of_path locs d.Diagnostic.d_path with
        | Some l when l > 0 -> Some l
        | Some _ | None -> (
          (* Program-wide findings often name a declaration (a signal or
             variable) as their location — the declaration table can
             still place those. *)
          match List.assoc_opt d.Diagnostic.d_loc locs.Parser.loc_decls with
          | Some l when l > 0 -> Some l
          | Some _ | None -> None)
      in
      match line with
      | None when d.Diagnostic.d_path <> [] ->
        (* Dataflow passes can anchor a finding on a synthesized node
           with no source line; degrade to the behavior path rather
           than reporting a bogus position. *)
        let position =
          Printf.sprintf "%s: %s" file
            (String.concat "/" d.Diagnostic.d_path)
        in
        let loc =
          if d.Diagnostic.d_loc = "" then position
          else position ^ ": " ^ d.Diagnostic.d_loc
        in
        { d with Diagnostic.d_loc = loc }
      | None -> d
      | Some line ->
        let position = Printf.sprintf "%s:%d" file line in
        let loc =
          if d.Diagnostic.d_loc = "" then position
          else position ^ ": " ^ d.Diagnostic.d_loc
        in
        { d with Diagnostic.d_loc = loc })
    ds

let count sev targets =
  List.fold_left
    (fun acc t -> acc + Diagnostic.count sev t.t_diags)
    0 targets

let errors = count Diagnostic.Error
let warnings = count Diagnostic.Warning

let phase_name = function Registry.Pre -> "pre" | Registry.Post -> "post"

let to_text targets =
  let buf = Buffer.create 1024 in
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "== %s: %d error(s), %d warning(s)\n" t.t_name
           (Diagnostic.count Diagnostic.Error t.t_diags)
           (Diagnostic.count Diagnostic.Warning t.t_diags));
      List.iter
        (fun d ->
          Buffer.add_string buf ("  " ^ Diagnostic.to_string d);
          Buffer.add_char buf '\n')
        t.t_diags)
    targets;
  Buffer.add_string buf
    (Printf.sprintf "total: %d error(s), %d warning(s)\n" (errors targets)
       (warnings targets));
  Buffer.contents buf

let to_json targets =
  let target t =
    Json.(
      Obj
        [
          ("name", String t.t_name);
          ("phase", String (phase_name t.t_phase));
          ("errors", Int (Diagnostic.count Diagnostic.Error t.t_diags));
          ("warnings", Int (Diagnostic.count Diagnostic.Warning t.t_diags));
          ("diagnostics", List (List.map Diagnostic.to_json t.t_diags));
        ])
  in
  Json.(
    to_string
      (Obj
         [
           ("targets", List (List.map target targets));
           ("errors", Int (errors targets));
           ("warnings", Int (warnings targets));
         ]))
