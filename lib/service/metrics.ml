type syscalls = { reads : int; writes : int; wakeups : int; rounds : int }

type t = {
  started : float;
  mutable sys_reads : int;
  mutable sys_writes : int;
  mutable sys_wakeups : int;
  mutable sys_rounds : int;
}

let create () =
  { started = Unix.gettimeofday (); sys_reads = 0; sys_writes = 0; sys_wakeups = 0; sys_rounds = 0 }

let uptime_s t = Unix.gettimeofday () -. t.started

let sys_read t = t.sys_reads <- t.sys_reads + 1
let sys_write t = t.sys_writes <- t.sys_writes + 1
let sys_wakeup t = t.sys_wakeups <- t.sys_wakeups + 1
let sys_round t = t.sys_rounds <- t.sys_rounds + 1

let syscalls t =
  { reads = t.sys_reads; writes = t.sys_writes; wakeups = t.sys_wakeups; rounds = t.sys_rounds }

(* Nearest-rank percentile over a sorted array. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

(* Sorts [a] in place. *)
let percentiles_of_array a =
  Array.sort compare a;
  (percentile_sorted a 0.50, percentile_sorted a 0.95, percentile_sorted a 0.99)

let percentiles xs = percentiles_of_array (Array.of_list xs)

module Reservoir = struct
  let size = 4096

  (* [lat] is a ring of the most recent samples, empty until the first
     one; [n] counts every sample ever added. *)
  type t = { mutable lat : float array; mutable n : int }

  let create () = { lat = [||]; n = 0 }

  let add r x =
    if r.n = 0 then r.lat <- Array.make size 0.;
    r.lat.(r.n mod size) <- x;
    r.n <- r.n + 1

  let percentiles r = percentiles_of_array (Array.sub r.lat 0 (min r.n size))
end
