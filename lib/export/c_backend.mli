(** C backend — "software compilation" of a sequential specification (the
    role the paper assigns to tools downstream of codesign).

    Scope: purely sequential specifications — a single process, no
    signals; the shape of a functional model before refinement.
    Hierarchical sequential composition with TOC arcs compiles to nested
    switch-based state machines; behavior-local variables are block-scoped
    so re-entering an arm re-initializes them; [for] loops use a hidden
    iterator so their trip count is fixed at entry — all exactly matching
    the reference simulator, which the test suite verifies by compiling
    the output with the system C compiler and diffing the [EMIT]/[FINAL]
    transcript. *)

exception Unsupported of string

val emit_program : Spec.Ast.program -> (string, string) result
