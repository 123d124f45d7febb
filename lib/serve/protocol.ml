(** Wire protocol: see the interface. *)

include Spec.Json

type json = t

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Auth of string
  | Submit of { sb_id : string option; sb_job : json }
  | Status of string
  | Result of { rs_id : string; rs_wait : bool }
  | Cancel of string
  | Stats
  | Ping
  | Shutdown

let ( let* ) = Result.bind

let request_of_json j =
  let* op = string_field "op" j in
  match op with
  | "auth" ->
    let* token = string_field "token" j in
    Ok (Auth token)
  | "submit" -> (
    match member "job" j with
    | None -> Error "submit needs a \"job\" object"
    | Some job ->
      let id =
        match member "id" j with Some (String s) -> Some s | _ -> None
      in
      Ok (Submit { sb_id = id; sb_job = job }))
  | "status" ->
    let* id = string_field "id" j in
    Ok (Status id)
  | "result" ->
    let* id = string_field "id" j in
    let* wait = bool_field ~default:false "wait" j in
    Ok (Result { rs_id = id; rs_wait = wait })
  | "cancel" ->
    let* id = string_field "id" j in
    Ok (Cancel id)
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

let request_to_json = function
  | Auth token -> Obj [ ("op", String "auth"); ("token", String token) ]
  | Submit { sb_id; sb_job } ->
    Obj
      ((("op", String "submit") :: ("job", sb_job)
        ::
        (match sb_id with
        | Some id -> [ ("id", String id) ]
        | None -> [])))
  | Status id -> Obj [ ("op", String "status"); ("id", String id) ]
  | Result { rs_id; rs_wait } ->
    Obj
      [
        ("op", String "result");
        ("id", String rs_id);
        ("wait", Bool rs_wait);
      ]
  | Cancel id -> Obj [ ("op", String "cancel"); ("id", String id) ]
  | Stats -> Obj [ ("op", String "stats") ]
  | Ping -> Obj [ ("op", String "ping") ]
  | Shutdown -> Obj [ ("op", String "shutdown") ]

(* ------------------------------------------------------------------ *)
(* Job states and replies                                              *)
(* ------------------------------------------------------------------ *)

type state = Pending | Running | Done | Failed | Cancelled

let state_name = function
  | Pending -> "pending"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let state_of_name = function
  | "pending" -> Some Pending
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "cancelled" -> Some Cancelled
  | _ -> None

let terminal = function
  | Done | Failed | Cancelled -> true
  | Pending | Running -> false

let ok fields = Obj (("ok", Bool true) :: fields)

let error msg = Obj [ ("ok", Bool false); ("error", String msg) ]

let error_with msg fields =
  Obj (("ok", Bool false) :: ("error", String msg) :: fields)
