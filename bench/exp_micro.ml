(* Bechamel micro-benchmarks: one Test.make per table/figure family,
   measuring the primitive that dominates that experiment. *)

open Bechamel
open Toolkit

let cell_cipher = Crypto.Cell_cipher.create (String.make 16 'K')

let cipher_of_fixture = Crypto.Cell_cipher.create (String.make 16 'M')

let oram_fixture =
  lazy
    (let server = Servsim.Server.create () in
     let rng = Crypto.Rng.create 3 in
     Oram.Path_oram.setup ~name:"micro"
       { capacity = 256; key_len = 8; payload_len = 8 }
       server cipher_of_fixture (Crypto.Rng.int rng))

let sort_fixture =
  lazy
    (let session = Core.Session.create ~n:256 ~m:1 () in
     Servsim.Trace.set_enabled (Core.Session.trace session) false;
     let b = Core.Sort_backend.encrypted session ~n:256 in
     for i = 0 to 255 do
       b.Core.Sort_backend.write i { Core.Sort_backend.key = Core.Sort_backend.L i; id = i }
     done;
     b)

let partition_fixture =
  lazy
    (let t = Datasets.Rnd.generate_with_domain ~seed:1 ~rows:1024 ~cols:2 ~domain:64 () in
     ( Fdbase.Partition.of_column (Relation.Table.column t 0),
       Fdbase.Partition.of_column (Relation.Table.column t 1) ))

let tests =
  [
    (* Table I is static; its cost driver is dataset generation. *)
    Test.make ~name:"table1/dataset-row-gen"
      (Staged.stage (fun () -> Datasets.Adult_like.generate ~rows:32 ()));
    (* Table II / semantic security: one cell encrypt+decrypt. *)
    Test.make ~name:"table2/cell-encrypt-decrypt"
      (Staged.stage (fun () ->
           Crypto.Cell_cipher.decrypt cell_cipher
             (Crypto.Cell_cipher.encrypt cell_cipher "0123456789abcdef01234567")));
    (* Table III / Fig. 4 ORAM curve: one PathORAM access at n = 256. *)
    Test.make ~name:"table3-fig4/path-oram-access"
      (Staged.stage (fun () ->
           let o = Lazy.force oram_fixture in
           Oram.Path_oram.write o ~key:(Relation.Codec.encode_int 7)
             (Relation.Codec.encode_int 7)));
    (* Fig. 4/6 Sort curve: one encrypted compare-exchange. *)
    Test.make ~name:"fig4-fig6/sort-compare-exchange"
      (Staged.stage (fun () ->
           let b = Lazy.force sort_fixture in
           let a = b.Core.Sort_backend.read 3 and c = b.Core.Sort_backend.read 200 in
           let lo, hi = if Core.Sort_backend.compare_by_key a c <= 0 then (a, c) else (c, a) in
           b.Core.Sort_backend.write 3 lo;
           b.Core.Sort_backend.write 200 hi));
    (* Fig. 5 storage accounting driver: partition product (plaintext). *)
    Test.make ~name:"fig5/partition-product"
      (Staged.stage (fun () ->
           let p1, p2 = Lazy.force partition_fixture in
           Fdbase.Partition.product p1 p2));
    (* Fig. 6(b): enclave-side comparator network execution, n = 256. *)
    Test.make ~name:"fig6b/enclave-sort-n256"
      (Staged.stage
         (let net = Osort.Network.bitonic 256 in
          fun () ->
            let b = Core.Sort_backend.enclave ~n:256 in
            for i = 0 to 255 do
              b.Core.Sort_backend.write i
                { Core.Sort_backend.key = Core.Sort_backend.L (255 - i); id = i }
            done;
            Osort.Driver.run net ~exchange:(fun ~up i j ->
                let x = b.Core.Sort_backend.read i and y = b.Core.Sort_backend.read j in
                let lo, hi =
                  if Core.Sort_backend.compare_by_key x y <= 0 then (x, y) else (y, x)
                in
                if up then begin
                  b.Core.Sort_backend.write i lo;
                  b.Core.Sort_backend.write j hi
                end
                else begin
                  b.Core.Sort_backend.write i hi;
                  b.Core.Sort_backend.write j lo
                end)));
    (* Fig. 7: one Ex-ORAM insert+delete pair. *)
    Test.make ~name:"fig7/ex-oram-insert-delete"
      (Staged.stage
         (let session = Core.Session.create ~n:256 ~m:1 () in
          let h =
            Core.Ex_oram_method.create session (Relation.Attrset.singleton 0) ~capacity:256
          in
          let i = ref 0 in
          fun () ->
            let id = !i mod 200 in
            incr i;
            Core.Ex_oram_method.insert_value h ~row:id (Relation.Value.Int id);
            Core.Ex_oram_method.delete h ~row:id));
  ]

(* Wire protocol v2: frames per PathORAM access over a real forked server
   process.  v1 sent one synchronous frame per block — 2·(levels+1)·Z of
   them per access; v2 batches the whole path into one Multi_get plus one
   Multi_put. *)
let remote_frames_report ~accesses () =
  let fd, pid = Servsim.Remote_server.fork_server () in
  let conn = Servsim.Remote.connect_fd ~pid fd in
  Fun.protect
    ~finally:(fun () -> Servsim.Remote.close conn)
    (fun () ->
      let server = Servsim.Server.create ~remote:conn () in
      let rng = Crypto.Rng.create 5 in
      let o =
        Oram.Path_oram.setup ~name:"rt"
          { capacity = 256; key_len = 8; payload_len = 8 }
          server cipher_of_fixture (Crypto.Rng.int rng)
      in
      let f0 = Servsim.Remote.frames conn in
      let t0 = Unix.gettimeofday () in
      for i = 0 to accesses - 1 do
        Oram.Path_oram.write o ~key:(Relation.Codec.encode_int i) (Relation.Codec.encode_int i)
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let frames = Servsim.Remote.frames conn - f0 in
      let v1_frames = 2 * (Oram.Path_oram.levels o + 1) * 4 (* Z = 4 *) in
      Printf.printf
        "  remote PathORAM (n = 256): %.1f wire frames per access, %s/access\n\
        \  (protocol v1 sent %d frames per access — one per path block)\n%!"
        (float_of_int frames /. float_of_int accesses)
        (Bench_util.pretty_time (dt /. float_of_int accesses))
        v1_frames)

(* {2 Crypto fast path}

   Measured with a plain timing loop rather than Bechamel so the report
   can also include per-operation allocation (minor words), and emitted
   as machine-readable BENCH_crypto.json so the perf trajectory is
   tracked across PRs.  Each figure is the median, min and max of
   [repeats] timed runs.  The AES block rows cover the live
   implementation [Aes128.expand] picked (AES-NI where the CPU has it),
   the T-table fallback and the byte-wise Reference; the acceptance bar
   is >= 4x block throughput of the live implementation over
   [Aes128.Reference]. *)

let measure ~iters f =
  f ();
  (* warm-up: table/page faults out of the timed region *)
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ( dt /. float_of_int iters,
    (Gc.minor_words () -. w0) /. float_of_int iters )

type sampled = { median : float; lo : float; hi : float; words : float }

(* [repeats] runs of [measure]: ns/op as median, min and max, and the
   largest minor words/op seen. *)
let sample ~repeats ~iters f =
  let runs = List.init repeats (fun _ -> measure ~iters f) in
  let ns = List.sort compare (List.map (fun (s, _) -> s *. 1e9) runs) in
  {
    median = List.nth ns (repeats / 2);
    lo = List.hd ns;
    hi = List.nth ns (repeats - 1);
    words = List.fold_left (fun acc (_, w) -> Float.max acc w) 0. runs;
  }

let mb_per_s ~bytes ns = float_of_int bytes /. (ns /. 1e9) /. 1048576.0

let crypto_report (opts : Bench_util.opts) =
  (* Smoke mode shrinks every loop ~200x: same code paths, seconds total. *)
  let it n = if opts.Bench_util.smoke then max 100 (n / 200) else n in
  let repeats = if opts.Bench_util.smoke then 3 else 7 in
  (* Read before BENCH_crypto.json is rewritten, which would mark the
     checkout dirty. *)
  let git_rev = Bench_util.git_rev () in
  let raw_key = String.init 16 (fun i -> Char.chr (i * 11 land 0xff)) in
  let src = Bytes.init 16 (fun i -> Char.chr (i * 7 land 0xff)) in
  let dst = Bytes.create 16 in
  let live = Crypto.Aes128.expand raw_key in
  let implementation =
    match live with Crypto.Aes128.Aesni _ -> "aesni" | Crypto.Aes128.Ttable _ -> "ttable"
  in
  let block key =
    sample ~repeats ~iters:(it 2_000_000) (fun () ->
        Crypto.Aes128.encrypt_block key ~src ~src_off:0 ~dst ~dst_off:0)
  in
  (* AES block: each implementation in turn.  The AES-NI row exists only
     where [expand] picked it. *)
  let aesni = if implementation = "aesni" then Some (block live) else None in
  let tt = block (Crypto.Aes128.Table.expand raw_key) in
  let reference =
    let kr = Crypto.Aes128.Reference.expand raw_key in
    sample ~repeats ~iters:(it 100_000) (fun () ->
        Crypto.Aes128.Reference.encrypt_block kr ~src ~src_off:0 ~dst ~dst_off:0)
  in
  let live_row = Option.value aesni ~default:tt in
  let speedup = reference.median /. live_row.median in
  if speedup < 4.0 then begin
    Printf.eprintf "crypto: %s speedup vs Reference %.2fx is below the 4x bar\n" implementation
      speedup;
    exit 1
  end;
  (* CBC$ cell: encrypt+decrypt of one 24-byte cell (a Sort element /
     typical attribute value after encoding). *)
  let cell = Crypto.Cell_cipher.create raw_key in
  let cell_pt = String.init 24 (fun i -> Char.chr (i * 5 land 0xff)) in
  let cell_ct_bytes = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:24 in
  let cell_s =
    sample ~repeats ~iters:(it 200_000) (fun () ->
        ignore (Crypto.Cell_cipher.decrypt cell (Crypto.Cell_cipher.encrypt cell cell_pt)))
  in
  (* Bulk path: one PathORAM path at n = 256 is Z*(L+1) = 36 cells of 48
     ciphertext bytes; encrypt_many + decrypt_many of the whole batch. *)
  let path_cells = 36 in
  let path_pt_len = 17 in
  (* 1 + 8 + 8, the ORAM block layout at key_len = payload_len = 8 *)
  let path_pts = List.init path_cells (fun i -> String.make path_pt_len (Char.chr (i land 0xff))) in
  let path_s =
    sample ~repeats ~iters:(it 20_000) (fun () ->
        ignore (Crypto.Cell_cipher.decrypt_many cell (Crypto.Cell_cipher.encrypt_many cell path_pts)))
  in
  let per_cell x = x /. float_of_int path_cells in
  let path_ct_bytes = path_cells * Crypto.Cell_cipher.ciphertext_len ~plaintext_len:path_pt_len in
  let print_block name r =
    Printf.printf "  %-42s %10.1f ns/block  %8.1f MB/s  %5.1f minor words/op\n" name r.median
      (mb_per_s ~bytes:16 r.median) r.words
  in
  Printf.printf "  live implementation: %s\n" implementation;
  Option.iter (print_block "aes128-block/aes-ni") aesni;
  print_block "aes128-block/t-table" tt;
  print_block "aes128-block/reference" reference;
  Printf.printf "  %-42s %10.2fx\n" (implementation ^ " speedup vs reference") speedup;
  Printf.printf "  %-42s %10.1f ns/cell   %8.1f MB/s  %5.1f minor words/op\n"
    "cbc-cell/encrypt+decrypt (24 B)" cell_s.median
    (mb_per_s ~bytes:(2 * cell_ct_bytes) cell_s.median)
    cell_s.words;
  Printf.printf "  %-42s %10.1f ns/cell   %8.1f MB/s\n"
    (Printf.sprintf "bulk-path/%d-cell enc+dec" path_cells)
    (per_cell path_s.median)
    (mb_per_s ~bytes:(2 * path_ct_bytes) path_s.median);
  (* Machine-readable trajectory record (overwritten on every run). *)
  let oc = open_out "BENCH_crypto.json" in
  let field name v = Printf.fprintf oc "    %S: %s,\n" name v in
  let num x = Printf.sprintf "%.2f" x in
  let ns_fields prefix r =
    field (prefix ^ "_ns_per_block") (num r.median);
    field (prefix ^ "_ns_per_block_min") (num r.lo);
    field (prefix ^ "_ns_per_block_max") (num r.hi)
  in
  let block_fields prefix r =
    ns_fields prefix r;
    field (prefix ^ "_mb_per_s") (num (mb_per_s ~bytes:16 r.median));
    field (prefix ^ "_minor_words_per_block") (Printf.sprintf "%.3f" r.words)
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"sfdd-bench-crypto/2\",\n\
    \  \"smoke\": %b,\n\
    \  \"git_rev\": %S,\n\
    \  \"host_cores\": %d,\n\
    \  \"ocaml_version\": %S,\n\
    \  \"repeats\": %d,\n\
    \  \"implementation\": %S,\n\
    \  \"aes_block\": {\n"
    opts.Bench_util.smoke git_rev
    (Domain.recommended_domain_count ())
    Sys.ocaml_version repeats implementation;
  (match aesni with
  | Some r -> block_fields "aesni" r
  | None ->
      List.iter
        (fun k -> field ("aesni_" ^ k) "null")
        [ "ns_per_block"; "ns_per_block_min"; "ns_per_block_max"; "mb_per_s";
          "minor_words_per_block" ]);
  block_fields "ttable" tt;
  ns_fields "reference" reference;
  field "reference_mb_per_s" (num (mb_per_s ~bytes:16 reference.median));
  field "ttable_speedup_vs_reference" (num (reference.median /. tt.median));
  Printf.fprintf oc
    "    \"speedup_vs_reference\": %.2f\n\
    \  },\n\
    \  \"cbc_cell\": {\n\
    \    \"plaintext_bytes\": 24,\n\
    \    \"encrypt_decrypt_ns_per_cell\": %.2f,\n\
    \    \"encrypt_decrypt_ns_per_cell_min\": %.2f,\n\
    \    \"encrypt_decrypt_ns_per_cell_max\": %.2f,\n\
    \    \"mb_per_s\": %.2f,\n\
    \    \"minor_words_per_op\": %.3f\n\
    \  },\n\
    \  \"bulk_path\": {\n\
    \    \"cells\": %d,\n\
    \    \"plaintext_bytes_per_cell\": %d,\n\
    \    \"encrypt_decrypt_ns_per_cell\": %.2f,\n\
    \    \"encrypt_decrypt_ns_per_cell_min\": %.2f,\n\
    \    \"encrypt_decrypt_ns_per_cell_max\": %.2f,\n\
    \    \"mb_per_s\": %.2f\n\
    \  }\n\
     }\n"
    speedup cell_s.median cell_s.lo cell_s.hi
    (mb_per_s ~bytes:(2 * cell_ct_bytes) cell_s.median)
    cell_s.words path_cells path_pt_len (per_cell path_s.median) (per_cell path_s.lo)
    (per_cell path_s.hi)
    (mb_per_s ~bytes:(2 * path_ct_bytes) path_s.median);
  close_out oc;
  Printf.printf "  (written to BENCH_crypto.json)\n%!"

let run (opts : Bench_util.opts) =
  Bench_util.header "Crypto fast path (AES-NI / T-table AES + allocation-free cells)";
  crypto_report opts;
  Bench_util.header "Bechamel micro-benchmarks (ns per run, OLS fit)";
  let quota = if opts.Bench_util.smoke then 0.05 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"sfdd" tests) in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) ols [] in
  List.iter
    (fun (name, o) ->
      let est =
        match Analyze.OLS.estimates o with Some [ e ] -> e | Some (e :: _) -> e | _ -> nan
      in
      Printf.printf "  %-42s %14s\n" name (Bench_util.pretty_time (est /. 1e9)))
    (List.sort compare rows);
  Bench_util.header "Wire protocol v2: batched path I/O";
  remote_frames_report ~accesses:(if opts.Bench_util.smoke then 8 else 64) ();
  Printf.printf "%!"
