(* Fig. 5: row scalability of server-side storage and peak client-side
   memory for one partition structure (identical for |X| = 1 and |X| >= 2 by the
   attribute-compression design, §IV-B). *)

open Core
open Relation

let measure method_ n =
  let table = Datasets.Rnd.generate ~seed:(50 + n) ~rows:n ~cols:2 () in
  let _, r = Protocol.partition_cardinality method_ table (Attrset.singleton 0) in
  let cell_ct = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:Codec.value_width in
  let storage = r.Protocol.cost.Servsim.Cost.server_bytes - (n * 2 * cell_ct) in
  (* The peak, not what is left at the end: Sort's working buffer is
     charged only while a call runs. *)
  let client = r.Protocol.cost.Servsim.Cost.client_peak_bytes in
  (storage, client)

let run (opts : Bench_util.opts) =
  let ks =
    if opts.Bench_util.smoke then [ 4; 6 ]
    else if opts.Bench_util.full then [ 6; 8; 10; 12 ]
    else [ 6; 8; 10 ]
  in
  Bench_util.header "Fig. 5: storage usage in S and memory usage in C vs number of rows";
  Printf.printf "%8s | %12s %12s %12s | %12s %12s %12s\n" "" "storage in S" "" "" "memory in C"
    "" "";
  Printf.printf "%8s | %12s %12s %12s | %12s %12s %12s\n" "n" "Or-ORAM" "Ex-ORAM" "Sort"
    "Or-ORAM" "Ex-ORAM" "Sort";
  List.iter
    (fun k ->
      let n = Bench_util.pow2 k in
      let s_or, c_or = measure Protocol.Or_oram n in
      let s_ex, c_ex = measure Protocol.Ex_oram n in
      let s_sort, c_sort = measure Protocol.Sort n in
      Printf.printf "%8d | %12s %12s %12s | %12s %12s %12s\n%!" n
        (Bench_util.pretty_bytes s_or) (Bench_util.pretty_bytes s_ex)
        (Bench_util.pretty_bytes s_sort) (Bench_util.pretty_bytes c_or)
        (Bench_util.pretty_bytes c_ex) (Bench_util.pretty_bytes c_sort))
    ks;
  Printf.printf
    "\n\
     Expected shape (paper Fig. 5): all O(n); Sort smallest on both axes (only\n\
     label ciphertexts in S, O(1) client memory); ORAM methods pay for dummy\n\
     blocks in S and position map + stash in C; Ex-ORAM > Or-ORAM (frequencies\n\
     and keys stored in addition).\n%!"
