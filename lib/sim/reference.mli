(** The retained round-robin polling scheduler, kept as the
    differential-testing baseline for the event-driven {!Engine}.  Same
    semantics, same hooks, same result type; leaves run on the
    tree-walking interpreter ({!Interp}), and every scheduling round polls
    every live leaf and re-walks the tree, so it is the slow path — use
    {!Engine.run} everywhere except in differential tests and kernel
    benchmarks. *)

open Spec

val run :
  ?config:Runtime.config ->
  ?hooks:Runtime.hooks ->
  ?ordering:Memord.t ->
  Ast.program ->
  Runtime.result
(** Simulate with the polling scheduler.  Observable behavior (outcome,
    trace, final values, delta and step counts, signal trace, deadlock
    reports, fault classifications) is identical to {!Engine.run},
    including under a weak [ordering] ({!Memord}) with the same policy
    and seed.
    @raise Interp.Run_error on dynamic errors. *)
