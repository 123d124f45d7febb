(** A small catalog of components in the spirit of the paper's examples:
    Intel 8086-class and faster processors, ASICs of various capacities,
    and a memory part. *)

val i8086 : Component.t
(** The paper's processor: 10 MHz Intel8086 class. *)

val sparc : Component.t

val asic_10k : Component.t
(** The paper's running allocation: a 10 000-gate, 75-pin ASIC. *)

val sram_1k : Component.t
