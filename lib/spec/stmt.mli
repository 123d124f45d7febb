(** Operations on statement lists: traversal, renaming, read/write set
    extraction and rewriting.  These are the generic engines the
    refinement procedures are built on. *)

open Ast

val fold_exprs : ('a -> expr -> 'a) -> 'a -> stmt list -> 'a
(** Fold over every expression occurring in the statements, in source
    order (including loop bounds, branch conditions and call arguments). *)

val map_exprs : (expr -> expr) -> stmt list -> stmt list
(** Rewrite every expression in place. *)

val map_stmts : (stmt -> stmt list) -> stmt list -> stmt list
(** Bottom-up statement rewriting: sub-statements are rewritten first, then
    [f] is applied to each resulting statement and its expansion is spliced
    into the enclosing list. *)

val reads : stmt list -> string list
(** Names read by the statements (in expressions), without duplicates, in
    order of first occurrence. *)

val writes : stmt list -> string list
(** Names written: assignment targets, [for] indices and [out] arguments
    of calls.  Signal-assignment targets are {e not} included (see
    {!signal_writes}). *)

val exists_access : (string -> bool) -> stmt list -> bool
(** [exists_access f stmts] is true when [f] holds for a name in
    [reads stmts] or [writes stmts], without building either list. *)

val signal_writes : stmt list -> string list
(** Targets of [<=] signal assignments. *)

val calls : stmt list -> string list
(** Names of called procedures, without duplicates. *)

val rename_refs : (string -> string) -> stmt list -> stmt list
(** Apply a renaming to every name occurrence: expression references,
    assignment targets, signal targets, [for] indices and [out]
    arguments. *)

val count : stmt list -> int
(** Total number of statement nodes, used by the size metrics. *)

val uses_name : string -> stmt list -> bool
(** Whether the given name occurs anywhere (read or written). *)
