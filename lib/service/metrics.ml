let reservoir_size = 4096

(* Per-namespace tracking is bounded two ways against tenant churn:
   an evicted tenant's counters are folded into scalar aggregates and
   its entry (with the 4096-float reservoir) is dropped, and past
   [max_tracked] live entries new namespaces share one catch-all bucket
   keyed by [overflow_key] (the empty string, which no session can
   claim — the daemon rejects an empty [Hello]). *)
let max_tracked = 1024

let overflow_key = ""

type ns = {
  mutable frames : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  lat : float array; (* ring of the most recent service latencies, seconds *)
  mutable lat_n : int; (* total latencies ever recorded *)
}

(* Frames-per-wake buckets: 0, 1, 2, 3, 4–7, 8–15, 16–31, 32+.  The
   shape of this histogram is the whole story of syscall batching: a
   strict request/response client is served one frame per wakeup and
   lives in bucket 1; a pipelined client pushes mass to the right. *)
let wake_buckets = [| "0"; "1"; "2"; "3"; "4-7"; "8-15"; "16-31"; "32+" |]

let wake_bucket n =
  if n <= 3 then max 0 n
  else if n <= 7 then 4
  else if n <= 15 then 5
  else if n <= 31 then 6
  else 7

type syscalls = { reads : int; writes : int; wakeups : int; rounds : int }

type t = {
  started : float;
  tbl : (string, ns) Hashtbl.t;
  mutable accepted : int;
  mutable rejected : int;
  mutable live : int;
  mutable evicted_count : int;
  mutable evicted_frames : int;
  mutable evicted_bytes_in : int;
  mutable evicted_bytes_out : int;
  (* Event-loop syscall counters for the loop that owns this [t] —
     daemon-lifetime scalars, deliberately outside the per-namespace
     table so tenant eviction never touches them. *)
  mutable sys_reads : int;
  mutable sys_writes : int;
  mutable sys_wakeups : int;
  mutable sys_rounds : int;
  mutable total_frames : int;
  wake_hist : int array;
}

let create () =
  {
    started = Unix.gettimeofday ();
    tbl = Hashtbl.create 16;
    accepted = 0;
    rejected = 0;
    live = 0;
    evicted_count = 0;
    evicted_frames = 0;
    evicted_bytes_in = 0;
    evicted_bytes_out = 0;
    sys_reads = 0;
    sys_writes = 0;
    sys_wakeups = 0;
    sys_rounds = 0;
    total_frames = 0;
    wake_hist = Array.make (Array.length wake_buckets) 0;
  }

let uptime_s t = Unix.gettimeofday () -. t.started

let on_accept t =
  t.accepted <- t.accepted + 1;
  t.live <- t.live + 1

let on_close t = t.live <- max 0 (t.live - 1)
let on_reject t = t.rejected <- t.rejected + 1
let live t = t.live
let accepted t = t.accepted
let rejected t = t.rejected

let sys_read t = t.sys_reads <- t.sys_reads + 1
let sys_write t = t.sys_writes <- t.sys_writes + 1
let sys_wakeup t = t.sys_wakeups <- t.sys_wakeups + 1
let sys_round t = t.sys_rounds <- t.sys_rounds + 1

let syscalls t =
  { reads = t.sys_reads; writes = t.sys_writes; wakeups = t.sys_wakeups; rounds = t.sys_rounds }

let record_wake_frames t n = t.wake_hist.(wake_bucket n) <- t.wake_hist.(wake_bucket n) + 1

let wake_histogram t =
  Array.to_list (Array.mapi (fun i label -> (label, t.wake_hist.(i))) wake_buckets)

let total_frames t = t.total_frames

let fresh_ns () =
  { frames = 0; bytes_in = 0; bytes_out = 0; lat = Array.make reservoir_size 0.; lat_n = 0 }

let find_ns t name =
  match Hashtbl.find_opt t.tbl name with
  | Some ns -> ns
  | None ->
      let key = if Hashtbl.length t.tbl >= max_tracked then overflow_key else name in
      (match Hashtbl.find_opt t.tbl key with
      | Some ns -> ns
      | None ->
          let ns = fresh_ns () in
          Hashtbl.replace t.tbl key ns;
          ns)

let record t ~namespace ~bytes_in ~bytes_out ~latency_s =
  let ns = find_ns t namespace in
  t.total_frames <- t.total_frames + 1;
  ns.frames <- ns.frames + 1;
  ns.bytes_in <- ns.bytes_in + bytes_in;
  ns.bytes_out <- ns.bytes_out + bytes_out;
  ns.lat.(ns.lat_n mod reservoir_size) <- latency_s;
  ns.lat_n <- ns.lat_n + 1

let evict_ns t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> ()
  | Some ns ->
      t.evicted_count <- t.evicted_count + 1;
      t.evicted_frames <- t.evicted_frames + ns.frames;
      t.evicted_bytes_in <- t.evicted_bytes_in + ns.bytes_in;
      t.evicted_bytes_out <- t.evicted_bytes_out + ns.bytes_out;
      Hashtbl.remove t.tbl name

let tracked t = Hashtbl.length t.tbl
let evicted t = t.evicted_count
let evicted_frames t = t.evicted_frames

let namespaces t =
  Hashtbl.fold (fun k _ acc -> if String.equal k overflow_key then acc else k :: acc) t.tbl []
  |> List.sort compare

(* Nearest-rank percentile over a sorted array. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let percentiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  (percentile_sorted a 0.50, percentile_sorted a 0.95, percentile_sorted a 0.99)

type summary = {
  frames : int;
  bytes_in : int;
  bytes_out : int;
  samples : int;
  p50_s : float;
  p95_s : float;
  p99_s : float;
}

let empty_summary =
  { frames = 0; bytes_in = 0; bytes_out = 0; samples = 0; p50_s = 0.; p95_s = 0.; p99_s = 0. }

let ns_summary t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> empty_summary
  | Some ns ->
      let n = min ns.lat_n reservoir_size in
      let a = Array.sub ns.lat 0 n in
      Array.sort compare a;
      {
        frames = ns.frames;
        bytes_in = ns.bytes_in;
        bytes_out = ns.bytes_out;
        samples = n;
        p50_s = percentile_sorted a 0.50;
        p95_s = percentile_sorted a 0.95;
        p99_s = percentile_sorted a 0.99;
      }
