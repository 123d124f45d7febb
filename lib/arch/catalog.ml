(** A small catalog of components in the spirit of the paper's examples:
    the Intel 8086-class processor and ASICs of various capacities. *)

let i8086 =
  Component.processor ~name:"Intel8086" ~clock_mhz:10.0 ~cycles_assign:4.0
    ~cycles_branch:6.0 ~cycles_io:10.0 ()

let sparc =
  Component.processor ~name:"SPARC" ~clock_mhz:40.0 ~cycles_assign:1.2
    ~cycles_branch:2.0 ~cycles_io:4.0 ()

(** The allocation of the paper's running example: a 10 000-gate, 75-pin
    ASIC. *)
let asic_10k =
  Component.asic ~name:"ASIC10k" ~gates:10_000 ~pins:75 ~clock_mhz:20.0

let sram_1k = Component.memory ~name:"SRAM1k" ~ports:1 ~width:16 ~words:1024
