include A

let twice x = 2 * via_include_inside x
