(** Port-ordering semantics for multi-port memories.

    The delta-cycle kernels commit every scheduled signal update at the
    end of a delta, in sorted-name order — sequentially consistent by
    construction.  Real multi-port memories give a weaker guarantee:
    each port's traffic commits in order, but traffic through different
    ports may be observed in either order, and some fabrics reorder
    within a bounded window even on one port (as long as same-location
    order is kept).

    [Memord] interposes on the commit path: updates to signals owned by
    a memory port are diverted into that port's FIFO instead of
    committing, and are released at the kernels' release points — right
    after a committed delta, and at quiescent rounds where the kernel
    would otherwise conclude the network has settled.  Under
    [Per_port_fifo] a release applies one port's oldest delta-group
    atomically (same-port traffic keeps exactly its sequential
    semantics; only the inter-port interleaving is scheduler-chosen);
    under [Relaxed] a release applies a single update picked from a
    bounded window, so simultaneous same-port updates can be torn apart
    and observed out of order.  Which port (and which window slot) is
    released is chosen by a seeded deterministic scheduler, so a
    (policy, seed) pair replays bit-identically, across both kernels.

    Propagation delay is bounded: each release point serves the
    scheduler's chosen port {e and} every port whose oldest queued
    update has waited {!force_bound} release points — no port is
    starved indefinitely.  This is what keeps hardened (watchdog)
    protocols live under weak orderings: their own-line readback checks
    see the write commit within a few watchdog rounds, well inside the
    retry budget, while unhardened designs still observe the stale
    window.

    Same-signal order is always preserved, under every policy: a
    release never overtakes an earlier queued update to the same
    signal.  This is the per-location ("coherence") guarantee that even
    relaxed hardware provides, and it keeps the coherence litmus shape
    meaningful. *)

open Spec

type policy =
  | Sc  (** today's behavior: nothing is diverted, byte-identical *)
  | Per_port_fifo
      (** a port's delta-groups commit atomically, in issue order;
          inter-port interleavings are chosen by the seeded scheduler *)
  | Relaxed of int
      (** per-port reordering within a bounded window (>= 1), releasing
          one update at a time — simultaneous updates tear apart *)

let default_window = 2

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "sc" -> Ok Sc
  | "per-port-fifo" | "fifo" -> Ok Per_port_fifo
  | "relaxed" -> Ok (Relaxed default_window)
  | other -> (
    (* relaxed:N selects the window explicitly *)
    match String.index_opt other ':' with
    | Some i when String.equal (String.sub other 0 i) "relaxed" -> (
      let n = String.sub other (i + 1) (String.length other - i - 1) in
      match int_of_string_opt n with
      | Some w when w >= 1 -> Ok (Relaxed w)
      | _ -> Error (Printf.sprintf "bad relaxed window %S" n))
    | _ ->
      Error
        (Printf.sprintf
           "unknown ordering %S (use sc, per-port-fifo or relaxed[:N])" s))

let policy_to_string = function
  | Sc -> "sc"
  | Per_port_fifo -> "per-port-fifo"
  | Relaxed w when w = default_window -> "relaxed"
  | Relaxed w -> Printf.sprintf "relaxed:%d" w

(* --- seeded deterministic scheduler (splitmix64) --------------------- *)

let gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A queued update: the delta cycle that issued it tags its group —
   updates captured out of the same commit form one atomic group under
   [Per_port_fifo] — and the release round it arrived in drives the
   bounded-staleness forcing. *)
type entry = {
  en_delta : int;
  en_round : int;
  en_name : string;
  en_value : Ast.value;
}

let force_bound = 3

type port = {
  pt_name : string;
  mutable pt_queue : entry list;  (* oldest first *)
}

type t = {
  mo_policy : policy;
  mo_port_of : string -> string option;
  mutable mo_state : int64;
  mutable mo_rounds : int;  (* release points seen so far *)
  mutable mo_ports : port list;  (* sorted by port name *)
  mutable mo_queued : int;
  mutable mo_diverted : int;  (* total updates ever diverted *)
  mutable mo_reordered : int;  (* releases that overtook an older entry *)
}

let make ~policy ~seed ~port_of =
  {
    mo_policy = policy;
    mo_port_of = port_of;
    mo_state = Int64.mul (Int64.of_int (seed + 1)) gamma;
    mo_rounds = 0;
    mo_ports = [];
    mo_queued = 0;
    mo_diverted = 0;
    mo_reordered = 0;
  }

let pending t = t.mo_queued > 0
let diverted t = t.mo_diverted
let reordered t = t.mo_reordered

(* Next scheduler choice in [0, bound). *)
let next t bound =
  if bound <= 1 then 0
  else begin
    t.mo_state <- Int64.add t.mo_state gamma;
    let r = Int64.rem (mix64 t.mo_state) (Int64.of_int bound) in
    Int64.to_int (if Int64.compare r 0L < 0 then Int64.neg r else r)
  end

let find_port t name =
  match List.find_opt (fun p -> String.equal p.pt_name name) t.mo_ports with
  | Some p -> p
  | None ->
    let p = { pt_name = name; pt_queue = [] } in
    t.mo_ports <-
      List.sort
        (fun a b -> String.compare a.pt_name b.pt_name)
        (p :: t.mo_ports);
    p

(** Offer an update about to commit in delta [delta].  [true] means it
    was diverted into a port FIFO and the kernel must drop it; [false]
    passes it through untouched (non-port signals, and everything under
    [Sc]). *)
let capture t ~delta name v =
  match t.mo_policy with
  | Sc -> false
  | Per_port_fifo | Relaxed _ -> (
    match t.mo_port_of name with
    | None -> false
    | Some port_name ->
      let p = find_port t port_name in
      p.pt_queue <-
        p.pt_queue
        @ [
            {
              en_delta = delta;
              en_round = t.mo_rounds;
              en_name = name;
              en_value = v;
            };
          ];
      t.mo_queued <- t.mo_queued + 1;
      t.mo_diverted <- t.mo_diverted + 1;
      true)

(* Indices in the first [window] entries of [q] that are eligible for
   release: no earlier queued entry updates the same signal (preserves
   same-location order). *)
let eligible window q =
  let rec go i seen acc = function
    | [] -> List.rev acc
    | _ when i >= window -> List.rev acc
    | e :: rest ->
      let acc = if List.mem e.en_name seen then acc else i :: acc in
      go (i + 1) (e.en_name :: seen) acc rest
  in
  go 0 [] [] q

let remove_nth q n =
  let rec go i acc = function
    | [] -> invalid_arg "Memord.remove_nth"
    | x :: rest ->
      if i = n then (x, List.rev_append acc rest)
      else go (i + 1) (x :: acc) rest
  in
  go 0 [] q

(* One port's release.  Under [Per_port_fifo] the oldest delta-group
   comes out atomically; under [Relaxed] a single entry picked from the
   eligibility window — the scheduler chooses the slot for the chosen
   port, forced (aged) ports give up their oldest entry. *)
let release_from t ~forced p =
  match t.mo_policy with
  | Sc -> [] (* unreachable: Sc never captures *)
  | Per_port_fifo ->
    let tag =
      match p.pt_queue with e :: _ -> e.en_delta | [] -> assert false
    in
    let group, rest =
      let rec split acc = function
        | e :: rest when e.en_delta = tag -> split (e :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      split [] p.pt_queue
    in
    p.pt_queue <- rest;
    t.mo_queued <- t.mo_queued - List.length group;
    List.map (fun e -> (e.en_name, e.en_value)) group
  | Relaxed w ->
    let idx =
      if forced then 0
      else begin
        let slots = eligible (max 1 w) p.pt_queue in
        List.nth slots (next t (List.length slots))
      end
    in
    let entry, rest = remove_nth p.pt_queue idx in
    if idx > 0 then t.mo_reordered <- t.mo_reordered + 1;
    p.pt_queue <- rest;
    t.mo_queued <- t.mo_queued - 1;
    [ (entry.en_name, entry.en_value) ]

(** Release queued updates at a kernel release point; [[]] when every
    FIFO is empty.  The scheduler picks one port to serve, and every
    other port whose oldest entry has waited {!force_bound} release
    points is served too (bounded propagation delay — no port starves).
    The caller applies the updates to the signal store out-of-band
    (pokes, not schedules). *)
let release t =
  let nonempty = List.filter (fun p -> p.pt_queue <> []) t.mo_ports in
  match nonempty with
  | [] -> []
  | ports ->
    t.mo_rounds <- t.mo_rounds + 1;
    let chosen = List.nth ports (next t (List.length ports)) in
    List.concat_map
      (fun p ->
        if p == chosen then release_from t ~forced:false p
        else
          match p.pt_queue with
          | e :: _ when t.mo_rounds - e.en_round >= force_bound ->
            release_from t ~forced:true p
          | _ -> [])
      ports
