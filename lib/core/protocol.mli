(** Bus handshake protocols (paper, Figure 5d).  Each bus consists of four
    control lines ([start], [done], [rd], [wr]), an address bus and a data
    bus.  The master side is encapsulated in generated [MST_send_*] /
    [MST_receive_*] procedures; the slave side ([SLV_send] /
    [SLV_receive]) is inlined into the generated memory behaviors as
    response branches.

    Two protocol styles are provided, as the paper anticipates ("generally
    we can select different protocols to exchange data"): the four-phase
    return-to-zero handshake of Figure 5d, and a transition-signalled
    two-phase variant that roughly halves the delta cycles per transfer. *)

open Spec

type style =
  | Four_phase  (** the paper's Figure 5d handshake *)
  | Two_phase
      (** [start]/[done] as parity toggles, idle when equal; two signal
          edges per transfer *)

val style_name : style -> string

type bus_signals = {
  bs_label : string;  (** bus label, e.g. [bus_global] *)
  bs_start : string;
  bs_done : string;
  bs_rd : string;
  bs_wr : string;
  bs_addr : string;
  bs_data : string;
  bs_addr_width : int;
  bs_data_width : int;
}

val make_bus_signals :
  Naming.t -> label:string -> addr_width:int -> data_width:int -> bus_signals
(** Allocate the six signals of a bus. *)

val signal_decls : bus_signals -> Ast.sig_decl list

val mst_send_name : bus_signals -> string
val mst_receive_name : bus_signals -> string

(** {1 Hardening}

    The hardened (watchdog + bounded-retry) variant is not a second copy
    of each handshake: every handshake below is written once over two
    internal primitives, a blocking wait and a drive of lines, and only
    these two look at [?harden].  Plain, a wait is one [wait until] and a
    drive is the assignments alone.  Hardened, every wait becomes a
    self-paced watchdog loop — after [hd_patience] fruitless delta cycles
    (doubling on every retry, exponential backoff) the waiting party
    idempotently re-drives its request/acknowledge lines, and after
    [hd_retries] retries it emits a [WDG_ABORT_*] marker and fail-stops,
    so a persistent fault becomes an honest deadlock, never silent
    corruption — and the lines just driven are read back the same way.
    All hardened parties pace themselves on the shared [hd_tick]
    signal. *)

type harden_cfg = {
  hd_tick : string;  (** the shared watchdog tick signal *)
  hd_patience : int;  (** delta cycles before the first retry *)
  hd_retries : int;  (** retries before the process fail-stops *)
}

val hardening : Naming.t -> harden:bool -> harden_cfg option
(** The watchdog configuration of a design ([None] unless [harden]):
    a fresh [wdg_tick] signal, patience 32, 6 retries. *)

val tick_signals : harden_cfg option -> Ast.sig_decl list
(** The declaration of the tick signal; none for a plain design. *)

val reserved_tag_prefixes : string list
(** Emit-tag prefixes reserved for generated recovery machinery
    ([WDG_], [FLT_], [MEM_UNMAPPED_]); equivalence judgements and fault
    classification filter these out. *)

val wdg_vars : harden_cfg option -> Ast.var_decl list
(** Watchdog bookkeeping locals ([wdg_t], [wdg_w], [wdg_lim], [wdg_n])
    of every procedure or behavior leaf that runs a handshake below; none
    for a plain design. *)

(** {1 Handshakes} *)

val four_phase_request :
  ?harden:harden_cfg ->
  ?slack:int ->
  ?strobes:string list ->
  ?latch:Ast.stmt list ->
  label:string ->
  start:string ->
  done_:string ->
  unit ->
  Ast.stmt list
(** The requesting side of a four-phase handshake: raise [start], wait
    for [done] ([slack] widens this wait's watchdog), run [latch], lower
    [start] and the [strobes], wait for [done] to fall.  The bus masters
    and the [B_CTRL] leaves share it. *)

val four_phase_complete :
  ?harden:harden_cfg -> label:string -> start:string -> done_:string ->
  unit -> Ast.stmt list
(** The completing side: raise [done], wait for [start] to fall, lower
    [done] (read back when hardened).  The bus slaves and the [B_NEW]
    wrappers share it; hardened, the [done] rise is re-driven (not
    re-executed) while [start] stays high. *)

val mst_procs :
  ?style:style -> ?harden:harden_cfg -> bus_signals -> Ast.proc_decl list
(** The master-side protocol procedures [MST_send_<bus>(a, d)] and
    [MST_receive_<bus>(a, out d)], from one generator over the direction.
    The request lines are driven, and read back when hardened, before
    [start] moves. *)

val master_read : bus_signals -> addr:int -> target:string -> Ast.stmt
(** [call MST_receive_<bus>(addr, out target)]. *)

val master_write : bus_signals -> addr:int -> value:Ast.expr -> Ast.stmt

val slv_complete :
  ?style:style -> ?harden:harden_cfg -> bus_signals -> Ast.stmt list
(** The slave-side completion handshake: {!four_phase_complete}, or the
    two-phase copy of [start] into [done]. *)

val slv_drive_data :
  ?harden:harden_cfg -> bus_signals -> Ast.expr -> Ast.stmt list
(** Drive the data bus; hardened, the committed value is read back
    before the completion handshake. *)

val slave_loop :
  ?style:style -> ?harden:harden_cfg -> bus_signals ->
  (Ast.expr * Ast.stmt list) list ->
  Ast.stmt list
(** A perpetual single-slave serving loop; unmapped addresses answer with
    an [emit] marker plus a completed handshake, so masters never
    deadlock but co-simulation exposes the fault. *)

val slave_loop_selective :
  ?style:style -> bus_signals -> (Ast.expr * Ast.stmt list) list ->
  Ast.stmt list
(** A serving loop for a bus with several slaves (Model4's
    inter-interface bus): requests for other slaves' addresses are waited
    out, not answered. *)
