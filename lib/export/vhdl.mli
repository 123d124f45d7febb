(** VHDL backend — the refined implementation model printed as a
    behavioral VHDL architecture, the form the paper feeds to behavioral
    synthesis.  Signals become architecture signals; every concurrent
    process becomes a VHDL process; sequential composition with TOC arcs
    becomes a state-machine loop; storage shared between memory ports
    becomes shared variables; the generated protocol procedures are
    emitted into the declarative part of each calling process.  See the
    implementation header for the full mapping. *)

exception Unsupported of string

val emit_program : Spec.Ast.program -> (string, string) result
