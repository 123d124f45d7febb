type proc_attrs = {
  proc_clock_mhz : float;
  proc_cycles_assign : float;
  proc_cycles_branch : float;
  proc_cycles_io : float;
}

type asic_attrs = {
  asic_gates : int;
  asic_pins : int;
  asic_clock_mhz : float;
  asic_cycles_per_op : float;
}

type mem_attrs = { mem_ports : int; mem_width : int; mem_words : int }

type kind =
  | Processor of proc_attrs
  | Asic of asic_attrs
  | Memory of mem_attrs

type t = { c_name : string; c_kind : kind }

let processor ?(cycles_assign = 4.0) ?(cycles_branch = 6.0) ?(cycles_io = 10.0)
    ~name ~clock_mhz () =
  {
    c_name = name;
    c_kind =
      Processor
        {
          proc_clock_mhz = clock_mhz;
          proc_cycles_assign = cycles_assign;
          proc_cycles_branch = cycles_branch;
          proc_cycles_io = cycles_io;
        };
  }

let asic ~name ~gates ~pins ~clock_mhz =
  {
    c_name = name;
    c_kind =
      Asic
        {
          asic_gates = gates;
          asic_pins = pins;
          asic_clock_mhz = clock_mhz;
          asic_cycles_per_op = 1.0;
        };
  }

let memory ~name ~ports ~width ~words =
  {
    c_name = name;
    c_kind = Memory { mem_ports = ports; mem_width = width; mem_words = words };
  }

let clock_mhz c =
  match c.c_kind with
  | Processor p -> p.proc_clock_mhz
  | Asic a -> a.asic_clock_mhz
  | Memory _ -> 0.0

let pp ppf c =
  match c.c_kind with
  | Processor p ->
    Format.fprintf ppf "processor %s @@ %.1f MHz" c.c_name p.proc_clock_mhz
  | Asic a ->
    Format.fprintf ppf "ASIC %s (%d gates, %d pins) @@ %.1f MHz" c.c_name
      a.asic_gates a.asic_pins a.asic_clock_mhz
  | Memory m ->
    Format.fprintf ppf "memory %s (%d ports, %dx%d bits)" c.c_name m.mem_ports
      m.mem_words m.mem_width
