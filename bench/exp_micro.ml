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
    (let session = Core.Session.create ~n:64 ~m:1 () in
     Servsim.Trace.set_enabled (Core.Session.trace session) false;
     let b = Core.Sort_backend.encrypted session ~n:64 in
     Servsim.Frame.send
       (b.Core.Sort_backend.io.write
          (List.init 64 (fun i -> (i, { Core.Sort_backend.key = Core.Sort_backend.L i; id = i }))));
     b)

(* One frame of a network pass: the bitonic network at n = 64 is one
   pass whose one component is all 64 slots, its 21 stages run in the
   client's buffer. *)
let sort_pass =
  (Osort.Network.passes (Osort.Network.bitonic 64) ~block:Core.Sort_backend.buffer_slots).(0)
    .Osort.Network.components

let partition_fixture =
  lazy
    (let t = Datasets.Rnd.generate_with_domain ~seed:1 ~rows:1024 ~cols:2 ~domain:64 () in
     ( Fdbase.Partition.of_column (Relation.Table.column t 0),
       Fdbase.Partition.of_column (Relation.Table.column t 1) ))

(* One recorder event, as every block the server sees costs. *)
let trace_fixture = Servsim.Trace.create ()
let trace_store = "micro-tree"

(* A 200-block frame each way: an Exchange putting and getting 200
   48-byte ciphertexts, and the Values answering it. *)
let codec_fixture =
  lazy
    (let blocks = List.init 200 (fun i -> String.make 48 (Char.chr (i land 0xff))) in
     ( Servsim.Wire.Exchange
         {
           puts = [ ("micro-tree", List.mapi (fun i b -> (i, b)) blocks) ];
           gets = [ ("micro-tree", List.init 200 Fun.id) ];
         },
       Servsim.Wire.Values blocks,
       Buffer.create 32768 ))

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
    (* Fig. 4/6 Sort curve: one encrypted pass frame of B = 64 slots,
       the unit Sort runs, in a write-behind batch of its own: one frame
       that reads the slots, the pass's 21 stages in the buffer, then
       its write batch, encrypted and sent in a puts-only frame. *)
    Test.make ~name:"fig4-fig6/sort-compare-exchange"
      (Staged.stage (fun () ->
           let b = Lazy.force sort_fixture in
           Servsim.Frame.with_batch (fun frames ->
               Core.Sort_method.exchange ~compare:Core.Sort_backend.compare_by_key
                 b.Core.Sort_backend.io frames sort_pass)));
    (* Fig. 5 storage accounting driver: partition product (plaintext). *)
    Test.make ~name:"fig5/partition-product"
      (Staged.stage (fun () ->
           let p1, p2 = Lazy.force partition_fixture in
           Fdbase.Partition.product p1 p2));
    (* Fig. 6(b): enclave-side comparator network execution, n = 256. *)
    Test.make ~name:"fig6b/enclave-sort-n256"
      (Staged.stage
         (let passes =
            Osort.Network.passes (Osort.Network.bitonic 256) ~block:Core.Sort_backend.buffer_slots
          in
          fun () ->
            let io = (Core.Sort_backend.enclave ~n:256).Core.Sort_backend.io in
            Servsim.Frame.send
              (io.Core.Sort_backend.write
                 (List.init 256 (fun i ->
                      (i, { Core.Sort_backend.key = Core.Sort_backend.L (255 - i); id = i }))));
            Servsim.Frame.with_batch (fun frames ->
                Osort.Driver.run passes
                  ~exchange:
                    (Core.Sort_method.exchange ~compare:Core.Sort_backend.compare_by_key io frames))));
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
            Core.Ex_oram_method.insert [ h ] ~row:id [| Relation.Value.Int id |];
            Core.Ex_oram_method.delete [ h ] ~row:id));
    (* Trace recording: one [record_name] (ns/event). *)
    Test.make ~name:"servsim/trace-record"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            Servsim.Trace.record_name trace_fixture trace_store Servsim.Trace.Read
              ~addr:(!i land 0xfff) ~len:48));
    (* Wire codec: encode a 200-block Exchange and its Values into one
       buffer, then decode both from its bytes, as the daemon does. *)
    Test.make ~name:"servsim/exchange-codec"
      (Staged.stage (fun () ->
           let req, resp, buf = Lazy.force codec_fixture in
           Buffer.clear buf;
           Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf) req;
           Servsim.Wire.write_response_sink (Servsim.Wire.buffer_sink buf) resp;
           let b = Buffer.to_bytes buf and pos = ref 0 in
           let src = Servsim.Wire.bytes_source b pos ~limit:(Bytes.length b) in
           ignore (Servsim.Wire.read_request_src src);
           ignore (Servsim.Wire.read_response_src src)));
  ]

(* Wire protocol v2: frames per PathORAM access over a real Unix socket
   to an in-process daemon.  v1 sent one synchronous frame per block —
   2·(levels+1)·Z of them per access; since v2 the whole path is one
   batched read frame plus one batched write frame (in v8, a gets-only
   and a puts-only Exchange). *)
let remote_frames_report ~accesses () =
  Service.Daemon.with_local @@ fun path _ ->
  let conn = Servsim.Remote.connect_unix path in
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
        \  (protocol v1, with a cell per slot, sent %d frames per access — one per path slot)\n%!"
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

(* Prints the crypto rows and returns the writer of their part of
   BENCH_crypto.json: every field up to the Bechamel rows. *)
let crypto_report (opts : Bench_util.opts) ~git_rev ~repeats =
  (* Smoke mode shrinks every loop ~200x: same code paths, seconds total. *)
  let it n = if opts.Bench_util.smoke then max 100 (n / 200) else n in
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
  (* Bulk path: one PathORAM path at n = 256 as the ORAM moves it, its
     L + 1 = 9 buckets of one cell each, a bucket's Z = 4 slots of
     1 + 8 + 8 bytes side by side (key_len = payload_len = 8);
     encrypt_many + decrypt_many of the whole batch. *)
  let path_cells = 9 in
  let path_pt_len = 4 * 17 in
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
    (Printf.sprintf "bulk-path/%d-bucket enc+dec" path_cells)
    (per_cell path_s.median)
    (mb_per_s ~bytes:(2 * path_ct_bytes) path_s.median);
  fun oc ->
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
      \  \"schema\": \"sfdd-bench-crypto/3\",\n\
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
      \  },\n"
      speedup cell_s.median cell_s.lo cell_s.hi
      (mb_per_s ~bytes:(2 * cell_ct_bytes) cell_s.median)
      cell_s.words path_cells path_pt_len (per_cell path_s.median) (per_cell path_s.lo)
      (per_cell path_s.hi)
      (mb_per_s ~bytes:(2 * path_ct_bytes) path_s.median)

let run (opts : Bench_util.opts) =
  (* Read before a full run rewrites BENCH_crypto.json, which would mark
     the checkout dirty. *)
  let git_rev = Bench_util.git_rev () in
  let repeats = if opts.Bench_util.smoke then 3 else 7 in
  Bench_util.header "Crypto fast path (AES-NI / T-table AES + allocation-free cells)";
  let emit_crypto = crypto_report opts ~git_rev ~repeats in
  Bench_util.header
    (Printf.sprintf "Bechamel micro-benchmarks (ns per run, OLS fit; median [p25, p75] of %d)"
       repeats);
  let quota = if opts.Bench_util.smoke then 0.05 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  (* One OLS estimate per test per repeat; the repeats run every test in
     turn, so a slow spell of the host spreads across tests instead of
     landing on one. *)
  let estimates () =
    let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"sfdd" tests) in
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
    |> Hashtbl.to_seq
    |> Seq.map (fun (name, o) ->
           (name, match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan))
    |> List.of_seq
  in
  let runs = List.init repeats (fun _ -> estimates ()) in
  let rows =
    List.map
      (fun (name, _) -> (name, List.map (fun run -> List.assoc name run) runs))
      (List.sort compare (List.hd runs))
  in
  List.iter
    (fun (name, ns) ->
      let a = Array.of_list ns in
      let q p =
        let ns = Stats.Summary.quantile a p in
        if ns < 1000. then Printf.sprintf "%.1f ns" ns else Bench_util.pretty_time (ns /. 1e9)
      in
      Printf.printf "  %-42s %10s  [%s, %s]\n" name (q 0.5) (q 0.25) (q 0.75))
    rows;
  Bench_util.write_bench_json opts "BENCH_crypto.json" (fun oc ->
      emit_crypto oc;
      Printf.fprintf oc
        "  \"micro\": {\n\
        \    \"unit\": \"ns/run\",\n\
        \    \"quota_s\": %g,\n\
        \    \"repeats\": %d,\n\
        \    \"rows\": {\n%s\n\
        \    }\n\
        \  }\n\
         }\n"
        quota repeats
        (String.concat ",\n"
           (List.map
              (fun (name, ns) ->
                Printf.sprintf "      %S: %s" name
                  (Bench_util.json_spread ~fmt:(Printf.sprintf "%.1f") ns))
              rows)));
  Bench_util.header "Wire protocol v2: batched path I/O";
  remote_frames_report ~accesses:(if opts.Bench_util.smoke then 8 else 64) ();
  Printf.printf "%!"
