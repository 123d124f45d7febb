(** String-keyed name tables: the one representation of scopes and name
    sets on the refine, check and lint path.  Keys compare with
    [String.compare]; no lookup on names goes through polymorphic
    compare or a linear scan of an association list. *)

module Set : Set.S with type elt = string
module Map : Map.S with type key = string

val bind : (string * 'a) list -> 'a Map.t -> 'a Map.t
(** [bind decls scope] lays one declaration list over an enclosing
    scope: each name in [decls] shadows its enclosing binding, and within
    [decls] the first entry of a name wins. *)
