let dead x = x + 1
let opt_never ?(flag = false) x = if flag then -x else x
let opt_passed ?(n = 1) x = x * n
let via_include x = x + 2
let via_include_inside x = x + 3
let via_alias x = x + 4
let via_let_module x = x + 5

module Key = struct
  type t = int

  let compare = Int.compare
  let show = string_of_int
end
