(* Ablations beyond the paper's tables:
   (a) security/performance frontier: the frequency-revealing baseline
       (prior art) vs the oblivious methods, with the attack's recovery
       rate as the price of the speed;
   (b) recursive vs non-recursive PathORAM (the §VII-C client-memory
       remark quantified);
   (c) attribute compression on/off for the Sort method (why §IV-B is
       needed). *)

open Relation
open Core

let run_baseline_frontier (opts : Bench_util.opts) =
  let n = Bench_util.pow2 (if opts.Bench_util.full then 9 else 7) in
  Bench_util.subheader
    (Printf.sprintf "(a) leakage/performance frontier at n = %d (single attribute)" n);
  let table = Datasets.Adult_like.generate ~seed:3 ~rows:n () in
  let aux = Datasets.Adult_like.generate ~seed:4 ~rows:n () in
  let key = String.make 16 'F' in
  let col = Schema.index (Table.schema table) "workclass" in
  (* Baseline: server-side partition of one column + attack rate. *)
  let det = Baseline.Det_encryption.create key in
  let truth = Table.column table col in
  let cts = Array.map (fun v -> Baseline.Det_encryption.encrypt det (Codec.encode_value v)) truth in
  let t_base =
    Bench_util.time_unit (fun () ->
        ignore (Fdbase.Partition.of_column (Array.map (fun c -> Value.Str c) cts)))
  in
  let rate =
    Baseline.Leakage_attack.recovery_rate
      (Baseline.Leakage_attack.frequency_attack ~ciphertexts:cts
         ~auxiliary:(Table.column aux col) ~truth)
  in
  Printf.printf "%-22s %14s   attack recovery: %4.0f%%\n" "DET baseline" (Bench_util.pretty_time t_base)
    (100.0 *. rate);
  List.iter
    (fun m ->
      let _, r = Protocol.partition_cardinality m table (Attrset.singleton col) in
      Printf.printf "%-22s %14s   attack recovery: n/a (semantically secure)\n%!"
        (Protocol.method_name m) (Bench_util.pretty_time r.Protocol.elapsed_s))
    Bench_util.all_methods;
  Printf.printf
    "(the baseline is orders of magnitude faster -- and an attacker with an\n\
     auxiliary distribution decrypts most of the column; cf. paper SVIII)\n"

let run_recursive_oram (opts : Bench_util.opts) =
  let sizes = if opts.Bench_util.full then [ 256; 1024; 4096; 16384 ] else [ 256; 1024; 4096 ] in
  Bench_util.subheader "(b) non-recursive vs recursive PathORAM (50 accesses each)";
  Printf.printf "%8s | %12s %12s | %14s %14s | %6s\n" "n" "flat client" "rec client"
    "flat t/access" "rec t/access" "depth";
  List.iter
    (fun n ->
      let server = Servsim.Server.create () in
      let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
      let rng = Crypto.Rng.create 3 in
      let flat =
        Oram.Path_oram.setup ~name:"flat" { capacity = n; key_len = 8; payload_len = 8 } server
          cipher (Crypto.Rng.int rng)
      in
      let rec_ =
        Oram.Recursive_path_oram.setup ~name:"rec"
          { capacity = n; payload_len = 8; fanout = 16; top_cutoff = 16 }
          server cipher (Crypto.Rng.int rng)
      in
      let accesses = 50 in
      (* Fill a third, then time accesses. *)
      for i = 0 to (n / 3) - 1 do
        Oram.Path_oram.write flat ~key:(Codec.encode_int i) (Codec.encode_int i);
        Oram.Recursive_path_oram.write rec_ ~key:i (Codec.encode_int i)
      done;
      let t_flat =
        Bench_util.time_unit (fun () ->
            for i = 0 to accesses - 1 do
              ignore (Oram.Path_oram.read flat ~key:(Codec.encode_int (i mod (n / 3))))
            done)
        /. float_of_int accesses
      in
      let t_rec =
        Bench_util.time_unit (fun () ->
            for i = 0 to accesses - 1 do
              ignore (Oram.Recursive_path_oram.read rec_ ~key:(i mod (n / 3)))
            done)
        /. float_of_int accesses
      in
      Printf.printf "%8d | %12s %12s | %14s %14s | %6d\n%!" n
        (Bench_util.pretty_bytes (Oram.Path_oram.client_state_bytes flat))
        (Bench_util.pretty_bytes (Oram.Recursive_path_oram.client_state_bytes rec_))
        (Bench_util.pretty_time t_flat) (Bench_util.pretty_time t_rec)
        (Oram.Recursive_path_oram.recursion_depth rec_))
    sizes;
  Printf.printf
    "(client state drops from O(n) to O(log n); each access pays one extra path\n\
     per recursion level -- the paper's 'more advanced ORAMs at the cost of\n\
     runtime', SVII-C)\n"

let run_lm_method (opts : Bench_util.opts) =
  let n = Bench_util.pow2 (if opts.Bench_util.full then 8 else 6) in
  Bench_util.subheader
    (Printf.sprintf "(b') end-to-end low-memory method (Omap + recursive ORAM), n = %d" n);
  let t = Datasets.Rnd.generate ~seed:31 ~rows:n ~cols:1 () in
  (* Or-ORAM. *)
  let session_or = Session.create ~n ~m:1 () in
  let db_or = Enc_db.outsource session_or t in
  let (_ : Or_oram_method.handle), dt_or =
    Bench_util.time (fun () -> Or_oram_method.single db_or 0)
  in
  let or_client =
    (Servsim.Cost.snapshot (Session.cost session_or)).Servsim.Cost.client_current_bytes
  in
  (* Lm-ORAM. *)
  let session_lm = Session.create ~n ~m:1 () in
  let db_lm = Enc_db.outsource session_lm t in
  let h, dt_lm = Bench_util.time (fun () -> Lm_oram_method.single db_lm 0) in
  Printf.printf "%-10s client %10s   partition time %12s\n" "Or-ORAM"
    (Bench_util.pretty_bytes or_client) (Bench_util.pretty_time dt_or);
  Printf.printf "%-10s client %10s   partition time %12s  (%.1fx slower)\n%!" "Lm-ORAM"
    (Bench_util.pretty_bytes (Lm_oram_method.client_state_bytes h))
    (Bench_util.pretty_time dt_lm) (dt_lm /. dt_or)

let run_compression_ablation (opts : Bench_util.opts) =
  let n = Bench_util.pow2 (if opts.Bench_util.full then 9 else 7) in
  Bench_util.subheader
    (Printf.sprintf "(c) attribute compression ablation, Sort method, n = %d" n);
  (* With compression, |X| = 4 costs the same as |X| = 2 (8-byte keys).
     Without it, keys are the concatenated values: width grows with |X|,
     and so do ciphertexts and transfer.  We emulate 'off' by splicing
     value-tuples into strings and measuring the key width. *)
  let table = Datasets.Rnd.generate ~seed:8 ~rows:n ~cols:4 () in
  List.iter
    (fun k ->
      let x = Attrset.of_list (List.init k Fun.id) in
      let compressed_key_bytes = 8 in
      let raw_key_bytes = k * Codec.value_width in
      let _, r = Protocol.partition_cardinality Protocol.Sort table x in
      Printf.printf
        "|X| = %d: key width %3d B compressed vs %3d B raw; final-step bytes moved %s\n%!" k
        compressed_key_bytes raw_key_bytes
        (Bench_util.pretty_bytes r.Protocol.step_bytes))
    [ 2; 3; 4 ];
  Printf.printf
    "(with S IV-B compression the per-record cost is flat in |X|; raw keys would\n\
     grow the sort elements ~linearly with |X|)\n"

let run_bucket_sort (opts : Bench_util.opts) =
  let ks = if opts.Bench_util.full then [ 10; 12; 14; 16 ] else [ 10; 12; 14 ] in
  Bench_util.subheader "(d) oblivious-sort primitives: slots touched (cost model) + measured";
  Printf.printf "%10s %14s %14s %8s | %12s %12s\n" "n" "bitonic" "bucket(z=128)" "ratio"
    "bitonic t" "bucket t";
  let rng = Crypto.Rng.create 17 in
  List.iter
    (fun k ->
      let n = Bench_util.pow2 k in
      let bitonic_touches = 4 * Osort.Network.comparator_count (Osort.Network.bitonic n) in
      let bucket_touches = Osort.Bucket_sort.touches ~n ~z:128 in
      (* Measured on plaintext ints (primitive-level comparison). *)
      let a = Array.init n (fun _ -> Crypto.Rng.int rng 1000000) in
      let t_bitonic =
        Bench_util.time_unit (fun () ->
            let b = Array.copy a in
            Array.iter
              (Array.iter (fun { Osort.Network.i; j; up } ->
                     let lo, hi = if b.(i) <= b.(j) then (b.(i), b.(j)) else (b.(j), b.(i)) in
                     if up then begin
                       b.(i) <- lo;
                       b.(j) <- hi
                     end
                     else begin
                       b.(i) <- hi;
                       b.(j) <- lo
                     end))
              (Osort.Network.bitonic n).Osort.Network.stages)
      in
      let t_bucket =
        Bench_util.time_unit (fun () ->
            ignore (Osort.Bucket_sort.sort ~z:128 ~compare ~rand:(Crypto.Rng.int rng) a))
      in
      Printf.printf "%10d %14d %14d %7.1fx | %12s %12s\n%!" n bitonic_touches bucket_touches
        (float_of_int bitonic_touches /. float_of_int bucket_touches)
        (Bench_util.pretty_time t_bitonic) (Bench_util.pretty_time t_bucket))
    ks;
  Printf.printf
    "(bucket oblivious sort [1] is O(n log n) vs bitonic's O(n log^2 n); the gap\n\
     widens with n -- the paper keeps bitonic for its in-place simplicity and\n\
     parallelism, which this table makes a quantified choice)\n"

let run (opts : Bench_util.opts) =
  Bench_util.header "Ablations (beyond the paper's tables)";
  run_baseline_frontier opts;
  run_recursive_oram opts;
  run_lm_method opts;
  run_compression_ablation opts;
  run_bucket_sort opts
