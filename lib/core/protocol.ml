(** Bus handshake protocols (paper, Figure 5d).  Each bus consists of four
    control lines ([start], [done], [rd], [wr]), an address bus and a data
    bus.  The master-side protocol is encapsulated in generated
    [MST_send_*] / [MST_receive_*] procedures; the slave side
    ([SLV_send] / [SLV_receive]) is inlined into the generated memory
    behaviors as response branches.

    Two protocol styles are provided, as the paper anticipates ("generally
    we can select different protocols to exchange data ... the content in
    the subroutines will change correspondingly"):

    - {!Four_phase} — the full return-to-zero handshake of Figure 5d:
      request, acknowledge, release, acknowledge-release (four signal
      edges per transfer);
    - {!Two_phase} — a transition-signalled (non-return-to-zero) variant:
      [start] and [done] are parity toggles, idle when equal; the master
      flips [start] to request and the slave copies [start] into [done] to
      complete (two signal edges per transfer, roughly halving the delta
      cycles each transfer costs). *)

open Spec
open Spec.Ast

type style =
  | Four_phase
  | Two_phase

let style_name = function
  | Four_phase -> "four-phase"
  | Two_phase -> "two-phase"

type bus_signals = {
  bs_label : string;  (** bus label, e.g. [b1] *)
  bs_start : string;
  bs_done : string;
  bs_rd : string;
  bs_wr : string;
  bs_addr : string;
  bs_data : string;
  bs_addr_width : int;
  bs_data_width : int;
}

(** Allocate the six signals of a bus. *)
let make_bus_signals naming ~label ~addr_width ~data_width =
  let sig_name suffix = Naming.fresh naming (label ^ "_" ^ suffix) in
  {
    bs_label = label;
    bs_start = sig_name "start";
    bs_done = sig_name "done";
    bs_rd = sig_name "rd";
    bs_wr = sig_name "wr";
    bs_addr = sig_name "addr";
    bs_data = sig_name "data";
    bs_addr_width = addr_width;
    bs_data_width = data_width;
  }

let signal_decls bs =
  [
    Builder.bool_signal ~init:false bs.bs_start;
    Builder.bool_signal ~init:false bs.bs_done;
    Builder.bool_signal ~init:false bs.bs_rd;
    Builder.bool_signal ~init:false bs.bs_wr;
    Builder.int_signal ~width:bs.bs_addr_width ~init:0 bs.bs_addr;
    Builder.int_signal ~width:bs.bs_data_width ~init:0 bs.bs_data;
  ]

let mst_send_name bs = "MST_send_" ^ bs.bs_label
let mst_receive_name bs = "MST_receive_" ^ bs.bs_label

(* --- protocol hardening ------------------------------------------------ *)

(** Configuration of the hardened (watchdog + bounded-retry) protocol
    variant.  All hardened parties share one [hd_tick] signal: a waiting
    process passes exactly one delta cycle per watchdog round by latching
    the toggled tick in a local first ([wdg_t := not tick; tick <= wdg_t;
    wait until cond or tick = wdg_t]) — concurrent togglers are safe
    because every same-delta reader computes the same target parity. *)
type harden_cfg = {
  hd_tick : string;  (** the shared watchdog tick signal *)
  hd_patience : int;
      (** fruitless delta cycles before the first retry; doubles on every
          retry (exponential backoff) *)
  hd_retries : int;  (** retries before the process fail-stops *)
}

(* One bus transfer completes within a handful of delta cycles, so 32
   fruitless cycles is already a confident timeout; six retries of
   exponential backoff give a total patience of 32 * 63 ~ 2000 cycles,
   far below the default delta budget, so a persistent fault fail-stops
   long before [Step_limit]. *)
let hardening naming ~harden =
  if harden then
    Some
      {
        hd_tick = Naming.fresh naming "wdg_tick";
        hd_patience = 32;
        hd_retries = 6;
      }
  else None

let tick_signals = function
  | None -> []
  | Some h -> [ Builder.bool_signal ~init:false h.hd_tick ]

let retry_tag label = "WDG_RETRY_" ^ label
let abort_tag label = "WDG_ABORT_" ^ label

(** Reserved emit-tag prefixes of the hardened protocol machinery and the
    generated memories ([WDG_RETRY]/[WDG_ABORT] watchdog markers,
    [FLT_MEMFIX] TMR repairs, [MEM_UNMAPPED] decode fallbacks).
    Equivalence judgements and fault classification filter these. *)
let reserved_tag_prefixes = [ "WDG_"; "FLT_"; "MEM_UNMAPPED_" ]

(** Watchdog bookkeeping locals of a hardened procedure or behavior leaf;
    none for a plain one.  The names are reserved for the generated code
    ([wdg_] prefix). *)
let wdg_vars = function
  | None -> []
  | Some _ ->
    [
      Builder.bool_var "wdg_t";
      Builder.int_var ~init:0 "wdg_w";
      Builder.int_var ~init:0 "wdg_lim";
      Builder.int_var ~init:0 "wdg_n";
    ]

(* A bounded watchdog wait until [cond].  Every round passes one delta
   cycle via the shared tick; after [slack * hd_patience] fruitless
   cycles — or immediately when [bad] holds (the driver's own-line self
   check, catching dropped or stuck-at updates) — the [redrive]
   statements re-issue the request idempotently and the patience
   doubles.  After [hd_retries] retries the process emits
   [WDG_ABORT_<label>] and fail-stops, turning a persistent fault into an
   honest deadlock instead of silent corruption. *)
let watch h ~slack ~bad ~label ~cond ~redrive =
  [
    Builder.("wdg_w" <-- Expr.int 0);
    Builder.("wdg_lim" <-- Expr.int (h.hd_patience * slack));
    Builder.("wdg_n" <-- Expr.int 0);
    Builder.while_ (Expr.not_ cond)
      [
        Builder.("wdg_t" <-- Expr.not_ (Expr.ref_ h.hd_tick));
        Builder.(h.hd_tick <== Expr.ref_ "wdg_t");
        Builder.wait_until Expr.(cond || ref_ h.hd_tick = ref_ "wdg_t");
        Builder.if_ (Expr.not_ cond)
          [
            Builder.if_
              Expr.(ref_ "wdg_w" >= ref_ "wdg_lim" || bad)
              [
                Builder.if_
                  Expr.(ref_ "wdg_n" >= int h.hd_retries)
                  [
                    Builder.emit (abort_tag label) (Expr.int 1);
                    Builder.wait_until Expr.fls;
                  ]
                  (Builder.("wdg_n" <-- Expr.(ref_ "wdg_n" + int 1))
                   :: Builder.("wdg_w" <-- Expr.int 0)
                   :: Builder.("wdg_lim" <-- Expr.(ref_ "wdg_lim" * int 2))
                   :: redrive
                  @ [ Builder.emit (retry_tag label) (Expr.ref_ "wdg_n") ]);
              ]
              [ Builder.("wdg_w" <-- Expr.(ref_ "wdg_w" + int 1)) ];
          ]
          [];
      ];
  ]

(** A blocking wait: plain, one [wait until]; hardened, a {!watch}. *)
let await ?harden ?(slack = 1) ?(bad = Expr.fls) ~label ~cond ~redrive () =
  match harden with
  | None -> [ Builder.wait_until cond ]
  | Some h -> watch h ~slack ~bad ~label ~cond ~redrive

(* [e1 op (e2 op ...)] over a non-empty list. *)
let rec chain op = function
  | [] -> invalid_arg "Protocol.chain"
  | [ e ] -> e
  | e :: rest -> op e (chain op rest)

(** Drive the lines; hardened, then read them back in a {!watch} that
    re-drives them. *)
let drive ?harden ~label lines =
  let assign = List.map (fun (line, v) -> Builder.(line <== v)) lines in
  assign
  @
  match harden with
  | None -> []
  | Some h ->
    watch h ~slack:1 ~bad:Expr.fls ~label
      ~cond:
        (chain Expr.( && ) (List.map (fun (l, v) -> Expr.(ref_ l = v)) lines))
      ~redrive:assign

(* --- the handshakes ---------------------------------------------------- *)

(** The master side of a four-phase handshake: raise [start], wait for
    [done], run [latch], lower [start] and the [strobes], wait for [done]
    to fall.  The bus masters and the [B_CTRL] leaves both use it. *)
let four_phase_request ?harden ?slack ?(strobes = []) ?(latch = []) ~label
    ~start ~done_ () =
  let held = start :: strobes in
  let lower = List.map (fun l -> Builder.(l <== Expr.fls)) held in
  (Builder.(start <== Expr.tru)
   :: await ?harden ?slack ~label
        ~cond:Expr.(ref_ done_ = tru)
        ~bad:Expr.(ref_ start = fls)
        ~redrive:[ Builder.(start <== Expr.tru) ]
        ())
  @ latch @ lower
  @ await ?harden ~label
      ~cond:Expr.(ref_ done_ = fls)
      ~bad:(chain Expr.( || ) (List.map (fun l -> Expr.(ref_ l = tru)) held))
      ~redrive:lower ()

(** The slave side of a four-phase handshake: raise [done], wait for the
    master to release [start], lower [done].  The bus slaves and the
    [B_NEW] wrappers both use it. *)
let four_phase_complete ?harden ~label ~start ~done_ () =
  (Builder.(done_ <== Expr.tru)
   :: await ?harden ~label
        ~cond:Expr.(ref_ start = fls)
        ~bad:Expr.(ref_ done_ = fls)
        ~redrive:[ Builder.(done_ <== Expr.tru) ]
        ())
  @ drive ?harden ~label [ (done_, Expr.fls) ]

type direction = Send | Receive

(** One master procedure.  Both directions drive the address (and, on a
    send, the data) with the direction's strobe — on the two-phase bus
    also clearing the other strobe — and read them back before the
    handshake; a receive latches [data] into [d] once [done] answers.
    Four-phase: {!four_phase_request}.  Two-phase: flip [start] and wait
    for [done] to catch up; the target parity is latched in a local
    first, because [start] only commits at the next delta and waiting on
    [done = start] directly would satisfy itself with the stale value. *)
let mst_proc ~style ?harden bs dir =
  let name, strobe, other, data, latch, d_param =
    match dir with
    | Send ->
      ( mst_send_name bs, bs.bs_wr, bs.bs_rd, [ (bs.bs_data, Expr.ref_ "d") ],
        [], Builder.param_in )
    | Receive ->
      ( mst_receive_name bs, bs.bs_rd, bs.bs_wr, [],
        [ Builder.("d" <-- Expr.ref_ bs.bs_data) ], Builder.param_out )
  in
  let label = name in
  let lines, handshake, parity =
    match style with
    | Four_phase ->
      ( [ (strobe, Expr.tru) ],
        four_phase_request ?harden ~strobes:[ strobe ] ~latch ~label
          ~start:bs.bs_start ~done_:bs.bs_done (),
        [] )
    | Two_phase ->
      ( [ (strobe, Expr.tru); (other, Expr.fls) ],
        [
          Builder.("t" <-- Expr.not_ (Expr.ref_ bs.bs_done));
          Builder.(bs.bs_start <== Expr.ref_ "t");
        ]
        @ await ?harden ~label
            ~cond:Expr.(ref_ bs.bs_done = ref_ "t")
            ~bad:Expr.(ref_ bs.bs_start <> ref_ "t")
            ~redrive:[ Builder.(bs.bs_start <== Expr.ref_ "t") ]
            ()
        @ latch,
        [ Builder.bool_var "t" ] )
  in
  Builder.proc name
    ~params:
      [
        Builder.param_in "a" (TInt bs.bs_addr_width);
        d_param "d" (TInt bs.bs_data_width);
      ]
    ~vars:(parity @ wdg_vars harden)
    (drive ?harden ~label (((bs.bs_addr, Expr.ref_ "a") :: data) @ lines)
    @ handshake)

(** The master-side write and read protocols.  The returned data line of
    a hardened read is verified slave-side ({!slv_drive_data}), which
    commits and checks [data] {e before} signalling [done], so a
    hardened master never latches a value the slave has not confirmed. *)
let mst_procs ?(style = Four_phase) ?harden bs =
  [ mst_proc ~style ?harden bs Send; mst_proc ~style ?harden bs Receive ]

(** Statements for the master: [call MST_receive_b(addr, out target)]. *)
let master_read bs ~addr ~target =
  Call (mst_receive_name bs, [ Arg_expr (Expr.int addr); Arg_var target ])

let master_write bs ~addr ~value =
  Call (mst_send_name bs, [ Arg_expr (Expr.int addr); Arg_expr value ])

(** The slave-side completion handshake.  Four-phase:
    {!four_phase_complete}.  Two-phase: copy [start] into [done] and wait
    for the completion to commit, otherwise the serving loop would still
    see the request pending and re-serve it within the same delta. *)
let slv_complete ?(style = Four_phase) ?harden bs =
  let label = "SLV_" ^ bs.bs_label in
  match style with
  | Four_phase ->
    four_phase_complete ?harden ~label ~start:bs.bs_start ~done_:bs.bs_done ()
  | Two_phase ->
    Builder.(bs.bs_done <== Expr.ref_ bs.bs_start)
    :: await ?harden ~label
         ~cond:Expr.(ref_ bs.bs_done = ref_ bs.bs_start)
         ~redrive:[ Builder.(bs.bs_done <== Expr.ref_ bs.bs_start) ]
         ()

(** The slave-side request condition: a transaction is pending. *)
let slv_pending ?(style = Four_phase) bs =
  match style with
  | Four_phase -> Expr.(ref_ bs.bs_start = tru)
  | Two_phase -> Expr.(ref_ bs.bs_start <> ref_ bs.bs_done)

(** The condition a non-addressed slave waits for before re-arming: the
    transaction (served by another slave) is over. *)
let slv_idle ?(style = Four_phase) bs =
  match style with
  | Four_phase -> Expr.(ref_ bs.bs_start = fls)
  | Two_phase -> Expr.(ref_ bs.bs_start = ref_ bs.bs_done)

(** The slave's data drive, read back {e before} the completion
    handshake raises [done] when hardened, so a hardened master never
    latches an uncommitted or corrupted data line (a stuck data bus
    exhausts the retries and fail-stops the slave instead of completing
    with a wrong value). *)
let slv_drive_data ?harden bs value =
  drive ?harden ~label:("SLV_" ^ bs.bs_label) [ (bs.bs_data, value) ]

(** One full slave serving loop over the given response branches.  The
    final branch answers unmapped addresses with an [emit] marker and a
    completed handshake, so a master is never dead-locked but the
    co-simulation trace exposes the fault. *)
let slave_loop ?style ?harden bs branches =
  let unmapped =
    Emit ("MEM_UNMAPPED_" ^ bs.bs_label, Ref bs.bs_addr)
    :: slv_complete ?style ?harden bs
  in
  [
    Builder.while_ Expr.tru
      (Builder.wait_until (slv_pending ?style bs) :: [ If (branches, unmapped) ]);
  ]

(** A slave serving loop for a bus with {e several} slaves (Model4's
    inter-interface bus): requests whose address is not served by this
    slave are left for another slave — the loop just waits out the
    transaction instead of answering. *)
let slave_loop_selective ?style bs branches =
  let leave_alone = [ Builder.wait_until (slv_idle ?style bs) ] in
  [
    Builder.while_ Expr.tru
      (Builder.wait_until (slv_pending ?style bs) :: [ If (branches, leave_alone) ]);
  ]
