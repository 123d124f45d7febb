val via_include : int -> int
val twice : int -> int
