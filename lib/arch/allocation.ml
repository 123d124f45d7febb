(** An allocation: the ordered list of system components that the
    partitions of a design map onto.  Partition [i] executes on component
    [i].  Buses and memories are not allocated here — they are introduced
    by model refinement according to the chosen implementation model. *)

type t = { parts : Component.t list }

let make parts =
  if parts = [] then invalid_arg "Allocation.make: empty allocation";
  { parts }

let component t i =
  match List.nth_opt t.parts i with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Allocation.component: no partition %d" i)

(** The paper's running allocation: one Intel8086-class processor and one
    10k-gate ASIC. *)
let proc_asic () = make [ Catalog.i8086; Catalog.asic_10k ]
