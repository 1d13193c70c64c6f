(* Treetop caching (ORAM client fast path): cache-off runs must be
   bit-identical to the pre-cache implementation (digests, byte counters,
   round trips AND ciphertext contents are pinned below); cache-on runs
   must stay correct, data-independent, and properly charged to the
   client-memory ledger; the FD methods must return identical results at
   every cache setting, statically and under streaming updates. *)

let cipher () = Crypto.Cell_cipher.create (String.make 16 'K')

let enc_key i = Relation.Codec.encode_int i
let enc_val i = Relation.Codec.encode_int i

let content_hash server =
  let names = List.sort String.compare (Servsim.Server.store_names server) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let st = Servsim.Server.find_store server name in
      Buffer.add_string buf name;
      for i = 0 to Servsim.Block_store.length st - 1 do
        Buffer.add_string buf (Servsim.Block_store.read st i)
      done)
    names;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* {2 Cache-off bit-identity: golden values captured on the pre-cache
      implementation.  Every digest, byte counter and ciphertext hash
      below predates the fast path; changing any of them means the
      cache-off wire behaviour regressed.} *)

let check_golden server ~full ~shape ~count ~to_server ~to_client ~trips ~content =
  let tr = Servsim.Server.trace server in
  Alcotest.(check int64) "full digest" full (Servsim.Trace.full_digest tr);
  Alcotest.(check int64) "shape digest" shape (Servsim.Trace.shape_digest tr);
  Alcotest.(check int) "event count" count (Servsim.Trace.count tr);
  let c = Servsim.Cost.snapshot (Servsim.Server.cost server) in
  Alcotest.(check int) "bytes to server" to_server c.Servsim.Cost.bytes_to_server;
  Alcotest.(check int) "bytes to client" to_client c.Servsim.Cost.bytes_to_client;
  Alcotest.(check int) "round trips" trips c.Servsim.Cost.round_trips;
  (* Content last: reading the stores adds trace events. *)
  Alcotest.(check string) "ciphertext content" content (content_hash server)

let test_golden_path () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 1 in
  let o =
    Oram.Path_oram.setup ~name:"g-path"
      { capacity = 64; key_len = 8; payload_len = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 19 do
    Oram.Path_oram.write o ~key:(enc_key i) (enc_val (i * 3))
  done;
  for i = 0 to 19 do
    ignore (Oram.Path_oram.read o ~key:(enc_key i))
  done;
  Oram.Path_oram.remove o ~key:(enc_key 5);
  check_golden server ~full:0x78fae49dc16d03c1L ~shape:0x329acab8edb94975L ~count:2804
    ~to_server:79488 ~to_client:55104 ~trips:85
    ~content:"5c6c0c3c0693ded1abe7146b86d4d952"

let test_golden_recursive () =
  let pad24 i =
    let b = Bytes.make 24 '\000' in
    Relation.Codec.put_int64 b 0 (Int64.of_int i);
    Relation.Codec.put_int64 b 8 (Int64.of_int (i * 7));
    Bytes.to_string b
  in
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 5 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"g-rec"
      { capacity = 128; payload_len = 24; fanout = 16; top_cutoff = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 19 do
    Oram.Recursive_path_oram.write o ~key:i (pad24 i)
  done;
  for i = 0 to 19 do
    ignore (Oram.Recursive_path_oram.read o ~key:i)
  done;
  Oram.Recursive_path_oram.remove o ~key:5;
  Alcotest.(check int) "client bytes (top map only)" 64
    (Oram.Recursive_path_oram.client_state_bytes o);
  check_golden server ~full:0x50d73f26870f433dL ~shape:0x4d1d65557d0ff665L ~count:5016
    ~to_server:275264 ~to_client:199424 ~trips:170
    ~content:"ccc7569fd66c1527445f5969a089c5c5"

let test_golden_linear () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 3 in
  let o =
    Oram.Linear_oram.setup ~name:"g-lin"
      { capacity = 16; key_len = 8; payload_len = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 9 do
    Oram.Linear_oram.write o ~key:(enc_key i) (enc_val i)
  done;
  ignore (Oram.Linear_oram.read o ~key:(enc_key 3));
  Oram.Linear_oram.remove o ~key:(enc_key 7);
  check_golden server ~full:0x604b614fee866265L ~shape:0xc0494717b821b75L ~count:400
    ~to_server:9984 ~to_client:9216 ~trips:27
    ~content:"b38fc84d24c4a2be62484a64ac55ea1a"

(* {2 Heavy-workload pins at k = 0 and k = 2}: the goldens above are too
      light for eviction to choose among more than Z eligible stash
      residents.  Here 60 live blocks in a capacity-128 tree make the
      greedy choice — and so the stash iteration order — decide every
      ciphertext, with and without the treetop cache.  Values captured
      before both PathORAM variants moved onto one tree core. *)

let heavy_key i = (i * 37) mod 128

let test_heavy_path ~cache_levels ~full ~shape ~count ~to_server ~to_client ~trips ~client
    ~content () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 31 in
  let o =
    Oram.Path_oram.setup ~name:"h-path" ~cache_levels
      { capacity = 128; key_len = 8; payload_len = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 59 do
    Oram.Path_oram.write o ~key:(enc_key (heavy_key i)) (enc_val (i * 11))
  done;
  for i = 0 to 59 do
    ignore (Oram.Path_oram.read o ~key:(enc_key (heavy_key (59 - i))))
  done;
  Oram.Path_oram.remove o ~key:(enc_key (heavy_key 17));
  Oram.Path_oram.dummy_access o;
  Oram.Path_oram.flush o;
  Alcotest.(check int) "client bytes" client (Oram.Path_oram.client_state_bytes o);
  check_golden server ~full ~shape ~count ~to_server ~to_client ~trips ~content

let test_heavy_recursive ~cache_levels ~full ~shape ~count ~to_server ~to_client ~trips
    ~client ~content () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 33 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"h-rec" ~cache_levels
      { capacity = 128; payload_len = 8; fanout = 8; top_cutoff = 4 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 59 do
    Oram.Recursive_path_oram.write o ~key:(heavy_key i) (enc_val (i * 11))
  done;
  for i = 0 to 59 do
    ignore (Oram.Recursive_path_oram.read o ~key:(heavy_key (59 - i)))
  done;
  Oram.Recursive_path_oram.remove o ~key:(heavy_key 17);
  Oram.Recursive_path_oram.flush o;
  Alcotest.(check int) "client bytes" client (Oram.Recursive_path_oram.client_state_bytes o);
  check_golden server ~full ~shape ~count ~to_server ~to_client ~trips ~content

(* {2 Model equality with the cache on}: random workloads against a
   Hashtbl, at a mid-tree and an over-deep (clamped to max) setting. *)

let random_ops ~capacity ~steps ~seed f =
  let rng = Crypto.Rng.create seed in
  for _ = 1 to steps do
    let k = Crypto.Rng.int rng capacity in
    f k (Crypto.Rng.int rng 3) (Crypto.Rng.int rng 1000)
  done

let test_path_model_cached cache_levels () =
  let capacity = 64 in
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 11 in
  let o =
    Oram.Path_oram.setup ~name:"mc-path" ~cache_levels
      { capacity; key_len = 8; payload_len = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  let model = Hashtbl.create 64 in
  random_ops ~capacity ~steps:600 ~seed:77 (fun k op v ->
      let key = enc_key k in
      match op with
      | 0 ->
          Oram.Path_oram.write o ~key (enc_val v);
          Hashtbl.replace model k v
      | 1 ->
          Oram.Path_oram.remove o ~key;
          Hashtbl.remove model k
      | _ ->
          Alcotest.(check (option string))
            "read agrees"
            (Option.map enc_val (Hashtbl.find_opt model k))
            (Oram.Path_oram.read o ~key));
  Alcotest.(check int) "live blocks" (Hashtbl.length model) (Oram.Path_oram.live_blocks o);
  Alcotest.(check int) "no stash overflow" 0 (Oram.Path_oram.stash_overflows o)

let test_recursive_model_cached cache_levels () =
  let capacity = 96 in
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 13 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"mc-rec" ~cache_levels
      { capacity; payload_len = 8; fanout = 8; top_cutoff = 4 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  let model = Hashtbl.create 64 in
  random_ops ~capacity ~steps:400 ~seed:78 (fun k op v ->
      match op with
      | 0 ->
          Oram.Recursive_path_oram.write o ~key:k (enc_val v);
          Hashtbl.replace model k v
      | 1 ->
          Oram.Recursive_path_oram.remove o ~key:k;
          Hashtbl.remove model k
      | _ ->
          Alcotest.(check (option string))
            "read agrees"
            (Option.map enc_val (Hashtbl.find_opt model k))
            (Oram.Recursive_path_oram.read o ~key:k));
  Alcotest.(check int) "live blocks" (Hashtbl.length model)
    (Oram.Recursive_path_oram.live_blocks o)

(* {2 Data-independence (QCheck)}: two workloads of the same shape (same
   op kinds, same key indices) but different payload bytes must leave
   bit-identical full trace digests — at every cache setting.  The
   payloads feed the encrypt path, so this also proves the reused path
   buffers never leak data into addresses, sizes or event order.  The
   linear scan has no cache, so it runs once, at 0. *)

type variant = Path | Recursive | Linear

let variant_name = function Path -> "path" | Recursive -> "recursive" | Linear -> "linear"

let run_workload variant ~cache_levels ~ops ~payload =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 21 in
  let c = cipher () in
  let digest () = Servsim.Trace.full_digest (Servsim.Server.trace server) in
  match variant with
  | Path ->
      let o =
        Oram.Path_oram.setup ~name:"di" ~cache_levels
          { capacity = 32; key_len = 8; payload_len = 8 }
          server c (Crypto.Rng.int rng)
      in
      List.iter
        (fun (k, op) ->
          match op mod 3 with
          | 0 -> Oram.Path_oram.write o ~key:(enc_key k) (payload k)
          | 1 -> ignore (Oram.Path_oram.read o ~key:(enc_key k))
          | _ -> Oram.Path_oram.remove o ~key:(enc_key k))
        ops;
      Oram.Path_oram.flush o;
      digest ()
  | Recursive ->
      let o =
        Oram.Recursive_path_oram.setup ~name:"di" ~cache_levels
          { capacity = 32; payload_len = 8; fanout = 8; top_cutoff = 4 }
          server c (Crypto.Rng.int rng)
      in
      List.iter
        (fun (k, op) ->
          match op mod 3 with
          | 0 -> Oram.Recursive_path_oram.write o ~key:k (payload k)
          | 1 -> ignore (Oram.Recursive_path_oram.read o ~key:k)
          | _ -> Oram.Recursive_path_oram.remove o ~key:k)
        ops;
      Oram.Recursive_path_oram.flush o;
      digest ()
  | Linear ->
      let o =
        Oram.Linear_oram.setup ~name:"di"
          { capacity = 32; key_len = 8; payload_len = 8 }
          server c (Crypto.Rng.int rng)
      in
      List.iter
        (fun (k, op) ->
          match op mod 3 with
          | 0 -> Oram.Linear_oram.write o ~key:(enc_key k) (payload k)
          | 1 -> ignore (Oram.Linear_oram.read o ~key:(enc_key k))
          | _ -> Oram.Linear_oram.remove o ~key:(enc_key k))
        ops;
      Oram.Linear_oram.flush o;
      digest ()

let qcheck_data_independence variant cache_levels =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s cache=%d: same shape, different data => same trace"
         (variant_name variant) cache_levels)
    ~count:15
    QCheck.(
      make
        Gen.(list_size (1 -- 40) (pair (int_bound 31) (int_bound 2))))
    (fun ops ->
      let d1 =
        run_workload variant ~cache_levels ~ops ~payload:(fun k -> enc_val (k * 3))
      in
      let d2 =
        run_workload variant ~cache_levels ~ops ~payload:(fun k -> enc_val (1000 - k))
      in
      Int64.equal d1 d2)

(* {2 FD results are cache-invariant}: static discovery and the
   streaming engine must return the same dependencies at every cache
   setting — the fast path may only change performance. *)

let fd_testable = Alcotest.testable Fdbase.Fd.pp Fdbase.Fd.equal

let sorted_fds fds = List.sort compare fds

let test_discover_cache_invariant method_ () =
  let table = Datasets.Adult_like.generate ~seed:3 ~rows:24 () in
  let base = Core.Protocol.discover ~seed:7 ~oram_cache_levels:0 method_ table in
  let cached = Core.Protocol.discover ~seed:7 ~oram_cache_levels:2 method_ table in
  Alcotest.(check (list fd_testable))
    "same FDs"
    (sorted_fds base.Core.Protocol.fds)
    (sorted_fds cached.Core.Protocol.fds)

let test_dynamic_cache_invariant () =
  let table = Datasets.Examples.fig1 () in
  let stream oram_cache_levels =
    let dyn = Core.Dynamic.start ~seed:5 ~oram_cache_levels table in
    let id = Core.Dynamic.insert dyn (Relation.Table.row table 0) in
    ignore (Core.Dynamic.insert dyn (Relation.Table.row table 1));
    Core.Dynamic.delete dyn ~id;
    Core.Dynamic.delete dyn ~id:0;
    let statuses = Core.Dynamic.revalidate dyn in
    Core.Dynamic.release dyn;
    List.sort compare (List.map (fun (fd, v) -> (Relation.Attrset.to_int fd.Fdbase.Fd.lhs, fd.Fdbase.Fd.rhs, v)) statuses)
  in
  Alcotest.(check (list (triple int int bool))) "same statuses" (stream 0) (stream 2)

(* {2 Client-memory ledger}: stash, position map and treetop cache all
   flow into the tagged client ledger; the snapshot must equal the
   structure's own accounting after a known workload. *)

let test_path_ledger () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 4 in
  let o =
    Oram.Path_oram.setup ~name:"led-path" ~cache_levels:2
      { capacity = 64; key_len = 8; payload_len = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 15 do
    Oram.Path_oram.write o ~key:(enc_key i) (enc_val i)
  done;
  let c = Servsim.Cost.snapshot (Servsim.Server.cost server) in
  Alcotest.(check int) "ledger = structure accounting"
    (Oram.Path_oram.client_state_bytes o)
    c.Servsim.Cost.client_current_bytes;
  (* The treetop cache is charged at capacity: (2^2 - 1) * 4 slots of
     (key_len + payload_len) bytes each. *)
  Alcotest.(check bool) "cache slots charged" true
    (c.Servsim.Cost.client_current_bytes >= 12 * 16);
  (* 16 live keys: position map 16*(8+8) = 256 on top of stash+cache. *)
  Alcotest.(check bool) "position map charged" true
    (c.Servsim.Cost.client_current_bytes >= 256 + (12 * 16))

let test_recursive_ledger () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 6 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"led-rec" ~cache_levels:2
      { capacity = 64; payload_len = 8; fanout = 8; top_cutoff = 4 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 15 do
    Oram.Recursive_path_oram.write o ~key:i (enc_val i)
  done;
  let c = Servsim.Cost.snapshot (Servsim.Server.cost server) in
  Alcotest.(check int) "ledger = structure accounting"
    (Oram.Recursive_path_oram.client_state_bytes o)
    c.Servsim.Cost.client_current_bytes;
  Oram.Recursive_path_oram.destroy o;
  let c = Servsim.Cost.snapshot (Servsim.Server.cost server) in
  Alcotest.(check int) "ledger cleared on destroy" 0 c.Servsim.Cost.client_current_bytes

(* {2 Flush}: the checkpoint writes exactly the cached prefix — one
   event per cached slot, through the normal traced write path — and is
   a no-op with the cache off. *)

let test_path_flush_events () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 8 in
  let o =
    Oram.Path_oram.setup ~name:"fl-path" ~cache_levels:2
      { capacity = 64; key_len = 8; payload_len = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 9 do
    Oram.Path_oram.write o ~key:(enc_key i) (enc_val i)
  done;
  let tr = Servsim.Server.trace server in
  let before = Servsim.Trace.count tr in
  Oram.Path_oram.flush o;
  Alcotest.(check int) "one event per cached slot: (2^2-1)*4" 12
    (Servsim.Trace.count tr - before);
  (* Reads still served correctly after the checkpoint. *)
  Alcotest.(check (option string)) "read after flush" (Some (enc_val 3))
    (Oram.Path_oram.read o ~key:(enc_key 3))

let test_path_flush_noop_uncached () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 8 in
  let o =
    Oram.Path_oram.setup ~name:"fl0-path"
      { capacity = 64; key_len = 8; payload_len = 8 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  Oram.Path_oram.write o ~key:(enc_key 1) (enc_val 1);
  let tr = Servsim.Server.trace server in
  let before = Servsim.Trace.count tr in
  Oram.Path_oram.flush o;
  Alcotest.(check int) "no events" 0 (Servsim.Trace.count tr - before)

let test_recursive_flush_one_frame () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 8 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"fl-rec" ~cache_levels:2
      { capacity = 96; payload_len = 8; fanout = 8; top_cutoff = 4 }
      server (cipher ()) (Crypto.Rng.int rng)
  in
  for i = 0 to 9 do
    Oram.Recursive_path_oram.write o ~key:i (enc_val i)
  done;
  let cost = Servsim.Server.cost server in
  let before = (Servsim.Cost.snapshot cost).Servsim.Cost.round_trips in
  Oram.Recursive_path_oram.flush o;
  (* All trees' cached prefixes ride in a single Scatter_put frame. *)
  Alcotest.(check int) "one round trip" 1
    ((Servsim.Cost.snapshot cost).Servsim.Cost.round_trips - before);
  Alcotest.(check (option string)) "read after flush" (Some (enc_val 3))
    (Oram.Recursive_path_oram.read o ~key:3)

(* {2 Remote parity}: the deferred-eviction fast path speaks
   [Scatter_put] over the real wire; a remote run must agree with the
   local run on results, client-side digests and round-trip ledger. *)

let test_remote_scatter_parity () =
  let run server =
    let rng = Crypto.Rng.create 17 in
    let o =
      Oram.Recursive_path_oram.setup ~name:"rp-rec" ~cache_levels:2
        { capacity = 64; payload_len = 8; fanout = 8; top_cutoff = 4 }
        server (cipher ()) (Crypto.Rng.int rng)
    in
    for i = 0 to 15 do
      Oram.Recursive_path_oram.write o ~key:i (enc_val (i * 5))
    done;
    let reads = List.init 16 (fun i -> Oram.Recursive_path_oram.read o ~key:i) in
    Oram.Recursive_path_oram.flush o;
    let tr = Servsim.Server.trace server in
    let c = Servsim.Cost.snapshot (Servsim.Server.cost server) in
    (reads, Servsim.Trace.full_digest tr, c.Servsim.Cost.round_trips)
  in
  let local = run (Servsim.Server.create ()) in
  let remote = Suite_remote.with_remote (fun conn -> run (Servsim.Server.create ~remote:conn ())) in
  let reads_l, full_l, trips_l = local and reads_r, full_r, trips_r = remote in
  Alcotest.(check (list (option string))) "same values" reads_l reads_r;
  Alcotest.(check int64) "same digest" full_l full_r;
  Alcotest.(check int) "same round trips" trips_l trips_r

let suite =
  List.map QCheck_alcotest.to_alcotest
    (List.concat_map
       (fun v -> List.map (qcheck_data_independence v) [ 0; 2; 8 ])
       [ Path; Recursive ]
    @ [ qcheck_data_independence Linear 0 ])
  @ [
      Alcotest.test_case "golden path digests (cache off)" `Quick test_golden_path;
      Alcotest.test_case "golden recursive digests (cache off)" `Quick test_golden_recursive;
      Alcotest.test_case "golden linear digests (cache off)" `Quick test_golden_linear;
      Alcotest.test_case "heavy path pins, cache=0" `Quick
        (test_heavy_path ~cache_levels:0 ~full:0xadae205eda86d139L ~shape:0x7f73e62c7b303845L
           ~count:8828 ~to_server:236352 ~to_client:187392 ~trips:247 ~client:944
           ~content:"423b290160a23ca078c820de62ef1f84");
      Alcotest.test_case "heavy path pins, cache=2" `Quick
        (test_heavy_path ~cache_levels:2 ~full:0xd7ef16b91799f039L ~shape:0x64f8b75c45bff4a5L
           ~count:6888 ~to_server:190080 ~to_client:140544 ~trips:248 ~client:1136
           ~content:"71f86ffd3eb448bb3300e2aa98f3fb55");
      Alcotest.test_case "heavy recursive pins, cache=0" `Quick
        (test_heavy_recursive ~cache_levels:0 ~full:0xa1119b5ff217d989L
           ~shape:0x10f4b3bb60c856cdL ~count:15676 ~to_server:629504 ~to_client:565312
           ~trips:735 ~client:16 ~content:"1ebc664d8586dd172531b6b746003185");
      Alcotest.test_case "heavy recursive pins, cache=2" `Quick
        (test_heavy_recursive ~cache_levels:2 ~full:0xad4c614721826671L
           ~shape:0x1482a0d46bca3b1dL ~count:10864 ~to_server:422784 ~to_client:356224
           ~trips:494 ~client:1584 ~content:"22e7855fa8e2693cb277dd8d6a7b148e");
      Alcotest.test_case "path model, cache=2" `Quick (test_path_model_cached 2);
      Alcotest.test_case "path model, cache=99 (clamped)" `Quick (test_path_model_cached 99);
      Alcotest.test_case "recursive model, cache=2" `Quick (test_recursive_model_cached 2);
      Alcotest.test_case "recursive model, cache=99 (clamped)" `Quick
        (test_recursive_model_cached 99);
      Alcotest.test_case "discover Or-ORAM cache-invariant" `Quick
        (test_discover_cache_invariant Core.Protocol.Or_oram);
      Alcotest.test_case "discover Ex-ORAM cache-invariant" `Quick
        (test_discover_cache_invariant Core.Protocol.Ex_oram);
      Alcotest.test_case "discover Sort cache-invariant" `Quick
        (test_discover_cache_invariant Core.Protocol.Sort);
      Alcotest.test_case "dynamic stream cache-invariant" `Quick test_dynamic_cache_invariant;
      Alcotest.test_case "path ledger includes cache" `Quick test_path_ledger;
      Alcotest.test_case "recursive ledger syncs and clears" `Quick test_recursive_ledger;
      Alcotest.test_case "path flush writes the cached prefix" `Quick test_path_flush_events;
      Alcotest.test_case "flush is a no-op uncached" `Quick test_path_flush_noop_uncached;
      Alcotest.test_case "recursive flush is one frame" `Quick test_recursive_flush_one_frame;
      Alcotest.test_case "remote Scatter_put parity" `Quick test_remote_scatter_parity;
    ]
