(* Dead-export finder over the compiler's typed trees.

   Reads the .cmt/.cmti files that `dune build @check` leaves under a
   build directory (default `_build/default`) for its lib, bin, test,
   perfbench and examples subtrees, and lists:

   - unused: a value declared in a lib .mli that no other compilation
     unit references; the note says whether its own unit still uses it;
   - test-only: such a value that only test units reference;
   - test-only-unit / unused-unit: a lib unit that no executable outside
     test/ reaches through imports;
   - optional-never-passed / optional-same-value: an optional argument
     of an exported function that no call site passes, or that every
     call site passes as the same constant.

   References are resolved through module aliases (top-level,
   submodule and `let module`), constrained `include`s and functor
   arguments; optional arguments the compiler fills in carry ghost
   locations and do not count as passed.

   Usage: dead_exports.exe [--allowlist FILE] [BUILD_DIR]

   Without an allowlist, every finding is printed and the exit status
   is 0.  With one, the gate: findings other than test-only values that
   it does not list, and entries that match no finding, are printed, and
   either makes the exit status 1.  Test-only values are candidates for
   review, not failures: a test may exercise what only a library uses.
   An allowlist line is `<kind> <name> <reason>`; blank lines and lines
   starting with `#` are skipped. *)

open Typedtree

type role = Lib | Test | Root

type unit_file = {
  modname : string;
  role : role;
  cmt : Cmt_format.cmt_infos;
  interface : bool;  (** read from a .cmti *)
}

(* ---------- collecting the files ---------- *)

let rec walk dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path acc
      else if
        Filename.basename dir = "byte"
        && (Filename.check_suffix name ".cmt"
           || Filename.check_suffix name ".cmti")
      then path :: acc
      else acc)
    acc
    (try Sys.readdir dir with Sys_error _ -> [||])

let load root =
  List.concat_map
    (fun sub ->
      let paths = List.sort compare (walk (Filename.concat root sub) []) in
      List.filter_map
        (fun path ->
          let cmt = Cmt_format.read_cmt path in
          let exe = String.starts_with ~prefix:"Dune__exe__" cmt.cmt_modname in
          let role =
            match sub with
            | "test" -> Test
            | "lib" when not exe -> Lib
            | _ -> Root
          in
          let wrapper =
            match cmt.cmt_sourcefile with
            | Some f -> Filename.check_suffix f ".ml-gen"
            | None -> true
          in
          if wrapper then None
          else
            Some
              {
                modname = cmt.cmt_modname;
                role;
                cmt;
                interface = Filename.check_suffix path ".cmti";
              })
        paths)
    [ "lib"; "bin"; "test"; "perfbench"; "examples" ]

(* ---------- names ---------- *)

(* A canonical name is a unit's module name followed by dotted
   submodule and value names: "Lint__Dataflow.Interval.join". *)

let known_units : (string, unit) Hashtbl.t = Hashtbl.create 256

(* Dune's wrapped libraries expose unit Foo of library Lib as Lib.Foo,
   an alias of the unit Lib__Foo. *)
let child m s =
  let unit_name =
    if String.ends_with ~suffix:"__" m then m ^ s else m ^ "__" ^ s
  in
  if Hashtbl.mem known_units unit_name then unit_name else m ^ "." ^ s

(* "Lint__Dataflow.Interval.join" is shown as "Lint.Dataflow.Interval.join" *)
let display name =
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let rec go i =
    if i < n then
      if i + 1 < n && name.[i] = '_' && name.[i + 1] = '_' then (
        Buffer.add_char b '.';
        go (i + 2))
      else (
        Buffer.add_char b name.[i];
        go (i + 1))
  in
  go 0;
  Buffer.contents b

(* ---------- what the typed trees say ---------- *)

type arg = Passed of string option | Omitted
(** [Passed (Some c)]: the argument is the constant written [c]. *)

type reference = { target : string; from : string; from_role : role }

let refs : reference list ref = ref []
let module_uses : reference list ref = ref []
let module_aliases : (string, string) Hashtbl.t = Hashtbl.create 64
let value_aliases : (string, string) Hashtbl.t = Hashtbl.create 256

(* target -> labelled optional arguments at each applied call site *)
let calls : (string, (string * arg) list) Hashtbl.t = Hashtbl.create 256

(* targets referenced other than as the function of an application *)
let escapes : (string, unit) Hashtbl.t = Hashtbl.create 256

type scope = {
  unit : unit_file;
  local_mods : (string, string option) Hashtbl.t;
  local_vals : (string, string) Hashtbl.t;
  mutable prefix : string option;
}

let rec resolve_mod sc = function
  | Path.Pident id -> (
      match Hashtbl.find_opt sc.local_mods (Ident.unique_name id) with
      | Some m -> m
      | None -> if Ident.global id then Some (Ident.name id) else None)
  | Path.Pdot (p, s) -> Option.map (fun m -> child m s) (resolve_mod sc p)
  | Path.Papply _ | Path.Pextra_ty _ -> None

let resolve_val sc = function
  | Path.Pident id -> Hashtbl.find_opt sc.local_vals (Ident.unique_name id)
  | Path.Pdot (p, s) -> Option.map (fun m -> m ^ "." ^ s) (resolve_mod sc p)
  | Path.Papply _ | Path.Pextra_ty _ -> None

let record sc into target =
  into := { target; from = sc.unit.modname; from_role = sc.unit.role } :: !into

let under sc name = Option.map (fun p -> p ^ "." ^ name) sc.prefix

let bind_val sc id =
  match under sc (Ident.name id) with
  | Some c -> Hashtbl.replace sc.local_vals (Ident.unique_name id) c
  | None -> ()

let rec strip me =
  match me.mod_desc with Tmod_constraint (inner, _, _, _) -> strip inner | _ -> me

(* The names of a signature's runtime slots, in slot order; a
   positional coercion indexes them. *)
let slot_names (mty : Types.module_type) =
  match mty with
  | Types.Mty_signature sg ->
      Some
        (List.filter_map
           (function
             | Types.Sig_value (_, { val_kind = Types.Val_prim _; _ }, _) -> None
             | Types.Sig_value (id, _, _)
             | Types.Sig_module (id, Types.Mp_present, _, _, _)
             | Types.Sig_typext (id, _, _, _)
             | Types.Sig_class (id, _, _, _) ->
                 Some (Ident.name id)
             | _ -> None)
           sg)
  | _ -> None

(* A module passed where a signature is expected (a functor argument, a
   packed first-class module) uses the components that signature names,
   as the coercion lists them; without a coercion, all of them. *)
let use_module sc m (arg : module_expr) coercion =
  let use name =
    let c = m ^ "." ^ name in
    record sc refs c;
    record sc module_uses c
  in
  match (coercion, slot_names arg.mod_type) with
  | Tcoerce_structure (positions, ids), Some slots ->
      List.iter
        (fun (pos, _) ->
          match List.nth_opt slots pos with
          | Some name -> use name
          | None -> record sc module_uses m)
        positions;
      List.iter (fun (id, _, _) -> use (Ident.name id)) ids
  | _ -> record sc module_uses m

let constant e =
  let rec is_const e =
    match e.exp_desc with
    | Texp_constant _ -> true
    | Texp_construct (_, _, args) -> List.for_all is_const args
    | Texp_tuple es -> List.for_all is_const es
    | _ -> false
  in
  if is_const e then
    Some (Pprintast.string_of_expression (Untypeast.untype_expression e))
  else None

(* The compiler fills an omitted optional argument with a [None] at a
   ghost location.  When it eta-expands a function passed as an argument
   ([let arg = f in fun eta -> arg ?l:None eta]), the application is at
   a ghost location instead.  A written [None] has neither. *)
let arg_of (f : expression) = function
  | Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); exp_loc; _ }
    when exp_loc.loc_ghost || f.exp_loc.loc_ghost ->
      Omitted
  | Some { exp_desc = Texp_construct (_, { cstr_name = "Some"; _ }, [ v ]); _ } ->
      Passed (constant v)
  | Some e -> Passed (Option.map (( ^ ) "?") (constant e))
  | None -> Omitted

let iterator sc =
  let super = Tast_iterator.default_iterator in
  let bind_module it id_opt name me =
    let id = Option.map Ident.unique_name id_opt in
    let set m = Option.iter (fun id -> Hashtbl.replace sc.local_mods id m) id in
    let path = Option.bind name (under sc) in
    match (strip me).mod_desc with
    | Tmod_ident (p, _) ->
        let m = resolve_mod sc p in
        set m;
        (match (path, m) with
        | Some path, Some m -> Hashtbl.replace module_aliases path m
        | _ -> ());
        (* [module X : S = M] uses what [S] names *)
        if me != strip me then it.Tast_iterator.module_expr it me
    | Tmod_structure _ ->
        set path;
        let saved = sc.prefix in
        sc.prefix <- path;
        it.Tast_iterator.module_expr it me;
        sc.prefix <- saved
    | _ ->
        set path;
        let saved = sc.prefix in
        sc.prefix <- None;
        it.module_expr it me;
        sc.prefix <- saved
  in
  let structure_item it si =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter (bind_val sc) (let_bound_idents vbs);
        super.structure_item it si
    | Tstr_primitive vd ->
        bind_val sc vd.val_id;
        super.structure_item it si
    | Tstr_module mb -> bind_module it mb.mb_id mb.mb_name.txt mb.mb_expr
    | Tstr_recmodule mbs ->
        List.iter (fun mb -> bind_module it mb.mb_id mb.mb_name.txt mb.mb_expr) mbs
    | Tstr_include incl -> (
        let source =
          match (strip incl.incl_mod).mod_desc with
          | Tmod_ident (p, _) -> resolve_mod sc p
          | _ -> None
        in
        List.iter
          (function
            | Types.Sig_value (id, _, _) -> (
                let name = Ident.name id in
                match source with
                | Some m ->
                    let c = m ^ "." ^ name in
                    Hashtbl.replace sc.local_vals (Ident.unique_name id) c;
                    Option.iter
                      (fun here -> Hashtbl.replace value_aliases here c)
                      (under sc name)
                | None -> bind_val sc id)
            | Types.Sig_module (id, _, _, _, _) -> (
                let name = Ident.name id in
                let m = Option.map (fun m -> m ^ "." ^ name) source in
                let m = if m = None then under sc name else m in
                Hashtbl.replace sc.local_mods (Ident.unique_name id) m;
                match (under sc name, source) with
                | Some here, Some src ->
                    Hashtbl.replace module_aliases here (src ^ "." ^ name)
                | _ -> ())
            | _ -> ())
          incl.incl_type;
        match source with
        | Some _ -> ()
        | None -> super.structure_item it si)
    | Tstr_open od -> (
        match (strip od.open_expr).mod_desc with
        | Tmod_ident _ -> ()
        | _ -> super.structure_item it si)
    | _ -> super.structure_item it si
  in
  let module_expr it me =
    match me.mod_desc with
    | Tmod_apply (f, arg, coercion) -> (
        it.Tast_iterator.module_expr it f;
        match (strip arg).mod_desc with
        | Tmod_ident (p, _) -> (
            match resolve_mod sc p with
            | Some m -> use_module sc m arg coercion
            | None -> ())
        | _ -> it.module_expr it arg)
    | Tmod_constraint (({ mod_desc = Tmod_ident (p, _); _ } as inner), _, _, coercion)
      -> (
        match resolve_mod sc p with
        | Some m -> use_module sc m inner coercion
        | None -> ())
    | Tmod_ident (p, _) -> Option.iter (record sc module_uses) (resolve_mod sc p)
    | _ -> super.module_expr it me
  in
  let expr it e =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        Option.iter
          (fun c ->
            record sc refs c;
            Hashtbl.replace escapes c ())
          (resolve_val sc p)
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args) ->
        (match resolve_val sc p with
        | Some c ->
            record sc refs c;
            let optional =
              List.filter_map
                (function
                  | Asttypes.Optional l, a -> Some (l, arg_of f a) | _ -> None)
                args
            in
            Hashtbl.add calls c optional
        | None -> it.Tast_iterator.expr it f);
        List.iter (fun (_, a) -> Option.iter (it.expr it) a) args
    | Texp_let
        ( _,
          [ { vb_pat = { pat_desc = Tpat_var (id, _); pat_loc; _ };
              vb_expr = { exp_desc = Texp_ident (p, _, _); _ }; _ } ],
          body )
      when pat_loc.loc_ghost -> (
        (* the binding of an eta-expansion; see [arg_of] *)
        match resolve_val sc p with
        | Some c ->
            record sc refs c;
            Hashtbl.replace sc.local_vals (Ident.unique_name id) c;
            it.expr it body
        | None -> super.expr it e)
    | Texp_open (od, body) -> (
        match (strip od.open_expr).mod_desc with
        | Tmod_ident _ -> it.expr it body
        | _ -> super.expr it e)
    | Texp_letmodule (id, name, _, me, body) ->
        let saved = sc.prefix in
        sc.prefix <- None;
        bind_module it id name.txt me;
        sc.prefix <- saved;
        it.expr it body
    | _ -> super.expr it e
  in
  { super with structure_item; module_expr; expr }

let scan_implementation u =
  match u.cmt.cmt_annots with
  | Cmt_format.Implementation str ->
      let sc =
        {
          unit = u;
          local_mods = Hashtbl.create 16;
          local_vals = Hashtbl.create 64;
          prefix = Some u.modname;
        }
      in
      let it = iterator sc in
      it.structure it str
  | _ -> ()

(* ---------- exported values ---------- *)

type export = {
  name : string;  (** canonical *)
  owner : string;
  loc : Location.t;
  optionals : string list;
}

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, r, _) -> l :: optional_labels r
  | Types.Tarrow (_, _, r, _) -> optional_labels r
  | Types.Tpoly (t, _) -> optional_labels t
  | _ -> []

let exports_of u =
  let rec items prefix acc sg =
    List.fold_left
      (fun acc si ->
        match si.sig_desc with
        | Tsig_value vd ->
            {
              name = prefix ^ "." ^ vd.val_name.txt;
              owner = u.modname;
              loc = vd.val_loc;
              optionals = optional_labels vd.val_val.val_type;
            }
            :: acc
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature sg -> items (prefix ^ "." ^ m) acc sg.sig_items
            | _ -> acc)
        | _ -> acc)
      acc sg
  in
  match u.cmt.cmt_annots with
  | Cmt_format.Interface sg when u.role = Lib -> items u.modname [] sg.sig_items
  | _ -> []

(* ---------- resolving names through aliases ---------- *)

let rec unalias_module name =
  let parts = String.split_on_char '.' name in
  let n = List.length parts in
  let rec try_prefix k =
    if k < 1 then name
    else
      let head = List.filteri (fun i _ -> i < k) parts in
      let tail = List.filteri (fun i _ -> i >= k) parts in
      match Hashtbl.find_opt module_aliases (String.concat "." head) with
      | Some m when m <> String.concat "." head ->
          unalias_module (String.concat "." (m :: tail))
      | _ -> try_prefix (k - 1)
  in
  try_prefix (n - 1)

(* Every canonical name a reference reaches: the name itself and, through
   includes, the values it re-exports. *)
let expand target =
  let rec go acc name =
    let name = unalias_module name in
    if List.mem name acc then acc
    else
      let acc = name :: acc in
      match Hashtbl.find_opt value_aliases name with
      | Some next -> go acc next
      | None -> acc
  in
  go [] target

(* ---------- findings ---------- *)

type finding = { kind : string; subject : string; where : string; note : string }

let loc_string (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

let analyse units =
  List.iter (fun u -> Hashtbl.replace known_units u.modname ()) units;
  List.iter (fun u -> if not u.interface then scan_implementation u) units;
  let exports = List.concat_map exports_of units in
  let by_name = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace by_name e.name e) exports;
  (* name -> roles of the other units referencing it, and own-unit uses *)
  let outside = Hashtbl.create 256 and inside = Hashtbl.create 256 in
  let note_ref r name =
    match Hashtbl.find_opt by_name name with
    | Some e when e.owner = r.from -> Hashtbl.replace inside name ()
    | Some _ -> Hashtbl.add outside name r.from_role
    | None -> ()
  in
  List.iter (fun r -> List.iter (note_ref r) (expand r.target)) !refs;
  List.iter
    (fun r ->
      List.iter
        (fun m ->
          let prefix = m ^ "." in
          List.iter
            (fun e ->
              if String.starts_with ~prefix e.name || e.name = m then note_ref r e.name)
            exports)
        (expand r.target))
    !module_uses;
  let call_sites = Hashtbl.create 256 and escaped = Hashtbl.create 256 in
  Hashtbl.iter
    (fun target args ->
      List.iter (fun n -> Hashtbl.add call_sites n args) (expand target))
    calls;
  Hashtbl.iter
    (fun target () ->
      List.iter (fun n -> Hashtbl.replace escaped n ()) (expand target))
    escapes;
  let findings = ref [] in
  let add kind subject where note =
    findings := { kind; subject = display subject; where; note } :: !findings
  in
  List.iter
    (fun e ->
      let where = loc_string e.loc in
      let roles = Hashtbl.find_all outside e.name in
      (if roles = [] then
         add "unused" e.name where
           (if Hashtbl.mem inside e.name then "used inside its unit"
            else "used nowhere")
       else if List.for_all (( = ) Test) roles then
         add "test-only" e.name where "");
      let sites = Hashtbl.find_all call_sites e.name in
      if sites <> [] && not (Hashtbl.mem escaped e.name) then
        List.iter
          (fun l ->
            let passed =
              List.map
                (fun args ->
                  match List.assoc_opt l args with
                  | Some (Passed c) -> Some c
                  | Some Omitted | None -> None)
                sites
            in
            let subject = e.name ^ "?" ^ l in
            if List.for_all Option.is_none passed then
              add "optional-never-passed" subject where ""
            else
              match passed with
              | Some (Some c) :: rest
                when List.for_all (( = ) (Some (Some c))) rest ->
                  add "optional-same-value" subject where ("always " ^ c)
              | _ -> ())
          (List.sort_uniq compare e.optionals))
    exports;
  (* lib units that no executable outside test/ reaches *)
  let imports = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter
        (fun (m, _) -> Hashtbl.add imports u.modname m)
        u.cmt.cmt_imports)
    units;
  let lib_units =
    List.sort_uniq compare
      (List.filter_map (fun u -> if u.role = Lib then Some u.modname else None) units)
  in
  let reach roots =
    let seen = Hashtbl.create 256 in
    let rec visit m =
      if not (Hashtbl.mem seen m) then (
        Hashtbl.replace seen m ();
        List.iter visit (Hashtbl.find_all imports m))
    in
    List.iter
      (fun u -> List.iter (fun (m, _) -> visit m) u.cmt.cmt_imports)
      roots;
    seen
  in
  let from_roots = reach (List.filter (fun u -> u.role = Root) units)
  and from_tests = reach (List.filter (fun u -> u.role = Test) units) in
  List.iter
    (fun m ->
      if not (Hashtbl.mem from_roots m) then
        let src =
          match
            List.find_opt (fun u -> u.modname = m && not u.interface) units
          with
          | Some { cmt = { cmt_sourcefile = Some f; _ }; _ } -> f
          | _ -> ""
        in
        add
          (if Hashtbl.mem from_tests m then "test-only-unit" else "unused-unit")
          m src "")
    lib_units;
  let optionals = List.fold_left (fun n e -> n + List.length e.optionals) 0 exports in
  (List.sort compare !findings, List.length exports, optionals)

(* ---------- allowlist ---------- *)

let read_allowlist path =
  let ic = open_in path in
  let rec loop n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (n + 1) acc
        else
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | kind :: subject :: _ :: _ -> loop (n + 1) ((kind, subject) :: acc)
          | _ ->
              Printf.eprintf "%s:%d: expected <kind> <name> <reason>\n" path n;
              exit 2)
  in
  loop 1 []

let print f =
  Printf.printf "%s %s %s%s\n" f.kind f.subject f.where
    (if f.note = "" then "" else " (" ^ f.note ^ ")")

let () =
  let allowlist = ref None and root = ref "_build/default" in
  Arg.parse
    [ ("--allowlist", Arg.String (fun f -> allowlist := Some f), "FILE findings to accept") ]
    (fun d -> root := d)
    "dead_exports.exe [--allowlist FILE] [BUILD_DIR]";
  let units = load !root in
  if not (List.exists (fun u -> u.role = Lib) units) then (
    Printf.eprintf "no lib .cmt files under %s; run `dune build @check` first\n" !root;
    exit 2);
  let findings, n_exports, n_optionals = analyse units in
  match !allowlist with
  | None ->
      List.iter print findings;
      Printf.printf "%d findings over %d exported values (%d optional arguments)\n"
        (List.length findings) n_exports n_optionals
  | Some path ->
      let allowed = read_allowlist path in
      let key f = (f.kind, f.subject) in
      let unlisted =
        List.filter
          (fun f -> f.kind <> "test-only" && not (List.mem (key f) allowed))
          findings
      in
      let stale =
        List.filter (fun k -> not (List.exists (fun f -> key f = k) findings)) allowed
      in
      List.iter (fun f -> print_string "not allowlisted: "; print f) unlisted;
      List.iter (fun (k, s) -> Printf.printf "stale allowlist entry: %s %s\n" k s) stale;
      if unlisted <> [] || stale <> [] then exit 1
