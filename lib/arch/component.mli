(** System components available to allocation: processors, ASICs and
    memory modules, with the attributes the estimators need. *)

type proc_attrs = {
  proc_clock_mhz : float;
  proc_cycles_assign : float;  (** cycles for an assignment statement *)
  proc_cycles_branch : float;  (** cycles for branch/condition evaluation *)
  proc_cycles_io : float;  (** cycles for one bus-level transfer *)
}

type asic_attrs = {
  asic_gates : int;  (** gate capacity *)
  asic_pins : int;
  asic_clock_mhz : float;
  asic_cycles_per_op : float;  (** cycles per datapath operation *)
}

type mem_attrs = {
  mem_ports : int;
  mem_width : int;  (** data width in bits *)
  mem_words : int;
}

type kind =
  | Processor of proc_attrs
  | Asic of asic_attrs
  | Memory of mem_attrs

type t = { c_name : string; c_kind : kind }

val processor :
  ?cycles_assign:float ->
  ?cycles_branch:float ->
  ?cycles_io:float ->
  name:string ->
  clock_mhz:float ->
  unit ->
  t

val asic : name:string -> gates:int -> pins:int -> clock_mhz:float -> t

val memory : name:string -> ports:int -> width:int -> words:int -> t

val clock_mhz : t -> float
(** Clock of the component; memories report 0. *)

val pp : Format.formatter -> t -> unit
