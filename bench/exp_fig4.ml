(* Fig. 4: row scalability of runtime — partition-computation time vs n
   for the three methods, cases |X| = 1 and |X| >= 2 (the timed unit is
   the final Algorithm run, generators pre-built, as in §VII-C). *)

open Core
open Relation

(* The paper's runtimes are client↔server over a 1 Gbps LAN, where every
   protocol message pays latency; our simulation runs in-process, so we
   report both the measured computation time and the modeled deployment
   time = computation + round_trips * RTT + bytes / bandwidth (see
   EXPERIMENTS.md).  Sort runs ~(n/4) log^2 n compare-exchanges per
   network, W = 32 of them per frame (a chunk's write batch rides in the
   next chunk's read frame), so a call costs about n log^2 n / 64 frames
   against the ORAM methods' n + 2 (one per row), each moving one
   ciphertext per bucket of a path.  Sort's modeled time so grows
   fastest and passes the ORAM methods' from n ~ 2^6-2^8 (|X| = 1) and
   2^7-2^8 (|X| >= 2); the paper's crossover, past
   n ~ 2^11, came from one message pair per comparator, which the
   chunks remove without changing what the server sees. *)

let measure method_ table x =
  let _, r = Protocol.partition_cardinality method_ table x in
  (r.Protocol.elapsed_s, r.Protocol.elapsed_s +. Protocol.modeled_network_seconds r)

let run (opts : Bench_util.opts) =
  let ks =
    if opts.Bench_util.smoke then [ 4; 5 ]
    else if opts.Bench_util.full then [ 6; 7; 8; 9; 10; 11 ]
    else [ 6; 7; 8; 9 ]
  in
  Bench_util.header "Fig. 4: runtime vs number of rows (cpu = computation only; net = modeled 1 Gbps / 0.2 ms deployment)";
  List.iter
    (fun (case, x) ->
      Bench_util.subheader (Printf.sprintf "case %s" case);
      Printf.printf "%8s | %11s %11s | %11s %11s | %11s %11s\n" "" "Or-ORAM" "" "Ex-ORAM" ""
        "Sort" "";
      Printf.printf "%8s | %11s %11s | %11s %11s | %11s %11s\n" "n" "cpu" "net" "cpu" "net"
        "cpu" "net";
      List.iter
        (fun k ->
          let n = Bench_util.pow2 k in
          let table = Datasets.Rnd.generate ~seed:(40 + k) ~rows:n ~cols:3 () in
          let c_or, n_or = measure Protocol.Or_oram table x in
          let c_ex, n_ex = measure Protocol.Ex_oram table x in
          let c_sort, n_sort = measure Protocol.Sort table x in
          Printf.printf "%8d | %11s %11s | %11s %11s | %11s %11s\n%!" n
            (Bench_util.pretty_time c_or) (Bench_util.pretty_time n_or)
            (Bench_util.pretty_time c_ex) (Bench_util.pretty_time n_ex)
            (Bench_util.pretty_time c_sort) (Bench_util.pretty_time n_sort))
        ks)
    [ ("|X| = 1", Attrset.singleton 0); ("|X| >= 2", Attrset.of_list [ 0; 1 ]) ];
  Printf.printf
    "\n\
     Expected shape (paper Fig. 4, the 'net' columns): Sort grows fastest\n\
     (O(n log^2 n) comparators vs the ORAM methods' O(n) accesses); with\n\
     Sort running whole network passes in 64-slot frames and one frame\n\
     per row for the ORAM methods, Sort stays below the ORAM methods up\n\
     to n = 2^11 (at 2^11 under half of Or-ORAM), as in the paper, which\n\
     has the ORAM methods below only past n ~ 2^11; Ex-ORAM costs more\n\
     than Or-ORAM (bigger payloads); the ORAM methods pay extra in the\n\
     |X| >= 2 case for the generator O^IL lookups.\n%!"
