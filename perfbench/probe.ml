(* Host-speed probe.

   The machine the benchmark runs on is shared: identical work takes up to
   a third longer when the neighbours are busy, and the slow phases last
   from seconds to minutes, longer than one run.  So every run also times a
   fixed probe kernel, interleaved with its ops, and reports its times
   scaled to a host on which the kernel takes [nominal_ms]:

     reported = measured * nominal_ms / median(probe times of this run)

   The kernel uses only the standard library — no code of the program under
   test.  It allocates and walks maps, hash tables, lists and buffers, as
   the program's layers do, so a slow host slows it by about as much: on
   refine-scale, four same-seed runs whose raw throughput spread 33% agreed
   within 3% once scaled. *)

let nominal_ms = 3.5

let kernel = Hostprobe.kernel

type t = { mutable samples : float list; startup_gc : Gc.control }

let start () = { samples = []; startup_gc = Gc.get () }

(* One timed kernel run, in the calling process so that it shares the
   op's core, caches and moment.  Should the program under test have
   changed the GC parameters since start-up, the kernel runs under the
   start-up ones, so the probe stays independent of the program.  Returns
   the wall time the call took. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  let current = Gc.get () in
  let changed = current <> t.startup_gc in
  if changed then Gc.set t.startup_gc;
  let k0 = Unix.gettimeofday () in
  ignore (kernel ());
  let k1 = Unix.gettimeofday () in
  if changed then Gc.set current;
  t.samples <- ((k1 -. k0) *. 1e3) :: t.samples;
  Unix.gettimeofday () -. t0

let probe_ms t = Stats.median t.samples
let last t = List.hd t.samples

(* Multiply a measured time by this to report it at nominal host speed. *)
let factor t =
  match t.samples with
  | [] -> 1.
  | xs -> nominal_ms /. Stats.median xs
