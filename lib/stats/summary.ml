let check a = if Array.length a = 0 then invalid_arg "Summary: empty series"

let mean a =
  check a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let stddev a =
  check a;
  let m = mean a in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a
    /. float_of_int (Array.length a)
  in
  sqrt var

(* Linear interpolation between order statistics. *)
let quantile a q =
  check a;
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then s.(n - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

let min a =
  check a;
  Array.fold_left Float.min a.(0) a

let max a =
  check a;
  Array.fold_left Float.max a.(0) a
