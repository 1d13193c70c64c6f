(* ORAM tests: functional correctness against a plain hash table (and the
   linear-scan oracle), obliviousness of the trace shape, stash behaviour,
   leaf-choice uniformity. *)

let key_len = 8
let payload_len = 8

let enc_key i = Relation.Codec.encode_int i
let enc_val i = Relation.Codec.encode_int i

let make_path ?(capacity = 64) ?(seed = 1) () =
  let server = Servsim.Server.create () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create seed in
  let o =
    Oram.Path_oram.setup ~name:"oram" { capacity; key_len; payload_len } server cipher
      (Crypto.Rng.int rng)
  in
  (server, o)

let test_read_empty () =
  let _, o = make_path () in
  Alcotest.(check (option string)) "absent" None (Oram.Path_oram.read o ~key:(enc_key 1))

let test_write_read () =
  let _, o = make_path () in
  Oram.Path_oram.write o ~key:(enc_key 1) (enc_val 42);
  Alcotest.(check (option string)) "present" (Some (enc_val 42))
    (Oram.Path_oram.read o ~key:(enc_key 1));
  Alcotest.(check (option string)) "other absent" None (Oram.Path_oram.read o ~key:(enc_key 2))

let test_overwrite () =
  let _, o = make_path () in
  Oram.Path_oram.write o ~key:(enc_key 5) (enc_val 1);
  Oram.Path_oram.write o ~key:(enc_key 5) (enc_val 2);
  Alcotest.(check (option string)) "latest wins" (Some (enc_val 2))
    (Oram.Path_oram.read o ~key:(enc_key 5));
  Alcotest.(check int) "one live block" 1 (Oram.Path_oram.live_blocks o)

let test_remove () =
  let _, o = make_path () in
  Oram.Path_oram.write o ~key:(enc_key 5) (enc_val 1);
  Oram.Path_oram.remove o ~key:(enc_key 5);
  Alcotest.(check (option string)) "gone" None (Oram.Path_oram.read o ~key:(enc_key 5));
  Alcotest.(check int) "no live blocks" 0 (Oram.Path_oram.live_blocks o);
  (* Removing an absent key is a no-op but still a physical access. *)
  Oram.Path_oram.remove o ~key:(enc_key 99);
  Alcotest.(check int) "still none" 0 (Oram.Path_oram.live_blocks o)

let test_full_capacity_random_ops () =
  (* Model check against Hashtbl across a random op sequence. *)
  let capacity = 128 in
  let _, o = make_path ~capacity ~seed:7 () in
  let model = Hashtbl.create 64 in
  let rng = Crypto.Rng.create 1234 in
  for step = 1 to 2000 do
    let k = Crypto.Rng.int rng capacity in
    let key = enc_key k in
    match Crypto.Rng.int rng 3 with
    | 0 ->
        let v = enc_val (Crypto.Rng.int rng 10000) in
        Oram.Path_oram.write o ~key v;
        Hashtbl.replace model k v
    | 1 ->
        Oram.Path_oram.remove o ~key;
        Hashtbl.remove model k
    | _ ->
        let expect = Hashtbl.find_opt model k in
        let got = Oram.Path_oram.read o ~key in
        if expect <> got then
          Alcotest.failf "step %d: key %d mismatch (model %s, oram %s)" step k
            (Option.value ~default:"⊥" expect)
            (Option.value ~default:"⊥" got)
  done;
  Alcotest.(check int) "live count matches model" (Hashtbl.length model)
    (Oram.Path_oram.live_blocks o)

let test_matches_linear_oracle () =
  let capacity = 32 in
  let server = Servsim.Server.create () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 3 in
  let p =
    Oram.Path_oram.setup ~name:"path" { capacity; key_len; payload_len } server cipher
      (Crypto.Rng.int rng)
  in
  let l =
    Oram.Linear_oram.setup ~name:"linear" { capacity; key_len; payload_len } server cipher
      (Crypto.Rng.int rng)
  in
  let oprng = Crypto.Rng.create 55 in
  for _ = 1 to 500 do
    let k = enc_key (Crypto.Rng.int oprng 20) in
    match Crypto.Rng.int oprng 3 with
    | 0 ->
        let v = enc_val (Crypto.Rng.int oprng 1000) in
        Oram.Path_oram.write p ~key:k v;
        Oram.Linear_oram.write l ~key:k v
    | 1 ->
        Oram.Path_oram.remove p ~key:k;
        Oram.Linear_oram.remove l ~key:k
    | _ ->
        Alcotest.(check (option string)) "agree"
          (Oram.Linear_oram.read l ~key:k)
          (Oram.Path_oram.read p ~key:k)
  done

let test_stash_within_limit () =
  let _, o = make_path ~capacity:256 ~seed:11 () in
  for i = 0 to 255 do
    Oram.Path_oram.write o ~key:(enc_key i) (enc_val i)
  done;
  for i = 0 to 255 do
    ignore (Oram.Path_oram.read o ~key:(enc_key i))
  done;
  Alcotest.(check int) "no overflows" 0 (Oram.Path_oram.stash_overflows o);
  Alcotest.(check bool) "max stash positive but bounded" true
    (Oram.Path_oram.max_stash_seen o <= Oram.Path_oram.stash_limit o)

(* Obliviousness: trace shape must be identical for different data and
   different keys, given the same number of accesses. *)
let trace_shape_of_ops ops =
  let server = Servsim.Server.create () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 17 in
  let o =
    Oram.Path_oram.setup ~name:"oram" { capacity = 64; key_len; payload_len } server cipher
      (Crypto.Rng.int rng)
  in
  List.iter
    (fun (k, v) ->
      match v with
      | Some v -> Oram.Path_oram.write o ~key:(enc_key k) (enc_val v)
      | None -> ignore (Oram.Path_oram.read o ~key:(enc_key k)))
    ops;
  Servsim.Trace.shape_digest (Servsim.Server.trace server)

let test_trace_shape_data_independent () =
  let ops1 = [ (1, Some 10); (2, Some 20); (1, None); (3, Some 30); (9, None) ] in
  let ops2 = [ (7, Some 99); (7, Some 98); (7, None); (8, Some 1); (8, None) ] in
  Alcotest.(check int64) "same shape" (trace_shape_of_ops ops1) (trace_shape_of_ops ops2)

let test_trace_shape_counts_accesses () =
  (* One more access must change the shape. *)
  let ops1 = [ (1, Some 10); (2, Some 20) ] in
  let ops2 = [ (1, Some 10); (2, Some 20); (3, Some 30) ] in
  Alcotest.(check bool) "different shape" false
    (Int64.equal (trace_shape_of_ops ops1) (trace_shape_of_ops ops2))

let test_access_touches_one_path () =
  (* Each access reads and writes exactly the L+1 buckets of one path,
     one block per bucket. *)
  let server = Servsim.Server.create ~keep_events:true () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 29 in
  let o =
    Oram.Path_oram.setup ~name:"oram" { capacity = 64; key_len; payload_len } server cipher
      (Crypto.Rng.int rng)
  in
  let before = Servsim.Trace.count (Servsim.Server.trace server) in
  Oram.Path_oram.write o ~key:(enc_key 1) (enc_val 1);
  let after = Servsim.Trace.count (Servsim.Server.trace server) in
  let levels = Oram.Path_oram.levels o in
  Alcotest.(check int) "2*(L+1) bucket accesses" (2 * (levels + 1)) (after - before)

let test_dummy_access_indistinguishable_shape () =
  let run use_dummy =
    let server = Servsim.Server.create () in
    let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
    let rng = Crypto.Rng.create 31 in
    let o =
      Oram.Path_oram.setup ~name:"oram" { capacity = 64; key_len; payload_len } server cipher
        (Crypto.Rng.int rng)
    in
    if use_dummy then Oram.Path_oram.dummy_access o
    else Oram.Path_oram.write o ~key:(enc_key 4) (enc_val 4);
    Servsim.Trace.shape_digest (Servsim.Server.trace server)
  in
  Alcotest.(check int64) "dummy = real shape" (run true) (run false)

let test_leaf_uniformity () =
  (* Repeated accesses to one key touch near-uniform leaves: chi-square
     style coarse bound over the leaf buckets of the recorded paths. *)
  let server = Servsim.Server.create ~keep_events:true () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 37 in
  let o =
    Oram.Path_oram.setup ~name:"oram" { capacity = 64; key_len; payload_len } server cipher
      (Crypto.Rng.int rng)
  in
  Oram.Path_oram.write o ~key:(enc_key 1) (enc_val 1);
  let trials = 2048 in
  for _ = 1 to trials do
    ignore (Oram.Path_oram.read o ~key:(enc_key 1))
  done;
  let levels = Oram.Path_oram.levels o in
  let leaves = 1 lsl levels in
  let leaf_base = leaves - 1 in
  (* Leaf buckets have addresses >= leaf_base, one block each. *)
  let counts = Array.make leaves 0 in
  List.iter
    (fun { Servsim.Trace.op; addr; _ } ->
      if op = Servsim.Trace.Read && addr >= leaf_base then
        counts.(addr - leaf_base) <- counts.(addr - leaf_base) + 1)
    (Servsim.Trace.events (Servsim.Server.trace server));
  let total = Array.fold_left ( + ) 0 counts in
  Alcotest.(check int) "one leaf bucket read per access" (trials + 1) total;
  let expect = float_of_int total /. float_of_int leaves in
  Array.iteri
    (fun i c ->
      let ratio = float_of_int c /. expect in
      if ratio < 0.5 || ratio > 1.7 then
        Alcotest.failf "leaf %d count %d far from uniform (expected ~%.0f)" i c expect)
    counts

let test_destroy_frees_storage () =
  let server, o = make_path () in
  let before = Servsim.Server.total_bytes server in
  Alcotest.(check bool) "storage allocated" true (before > 0);
  Oram.Path_oram.destroy o;
  Alcotest.(check int) "freed" 0 (Servsim.Server.total_bytes server)

let test_key_length_validation () =
  let _, o = make_path () in
  Alcotest.(check bool) "bad key rejected" true
    (match Oram.Path_oram.read o ~key:"short" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_linear_oram_basics () =
  let server = Servsim.Server.create () in
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 3 in
  let o =
    Oram.Linear_oram.setup ~name:"lin" { capacity = 16; key_len; payload_len } server cipher
      (Crypto.Rng.int rng)
  in
  Oram.Linear_oram.write o ~key:(enc_key 3) (enc_val 33);
  Alcotest.(check (option string)) "read" (Some (enc_val 33))
    (Oram.Linear_oram.read o ~key:(enc_key 3));
  Oram.Linear_oram.remove o ~key:(enc_key 3);
  Alcotest.(check (option string)) "removed" None (Oram.Linear_oram.read o ~key:(enc_key 3))

let test_linear_oram_full_trace_identical () =
  (* The linear ORAM's full trace (addresses included) is identical for
     any two op sequences of the same length. *)
  let run ops =
    let server = Servsim.Server.create () in
    let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
    let rng = Crypto.Rng.create 3 in
    let o =
      Oram.Linear_oram.setup ~name:"lin" { capacity = 16; key_len; payload_len } server cipher
        (Crypto.Rng.int rng)
    in
    List.iter
      (fun (k, v) ->
        match v with
        | Some v -> Oram.Linear_oram.write o ~key:(enc_key k) (enc_val v)
        | None -> ignore (Oram.Linear_oram.read o ~key:(enc_key k)))
      ops;
    Servsim.Trace.full_digest (Servsim.Server.trace server)
  in
  Alcotest.(check int64) "identical traces"
    (run [ (1, Some 1); (2, None); (1, None) ])
    (run [ (9, Some 7); (9, Some 8); (9, None) ])

let qcheck_path_oram_model =
  QCheck.Test.make ~name:"path oram = hashtable model (random op lists)" ~count:30
    QCheck.(list_of_size Gen.(5 -- 60) (pair (int_bound 15) (option (int_bound 100))))
    (fun ops ->
      let _, o = make_path ~capacity:16 ~seed:(List.length ops) () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          let key = enc_key k in
          match v with
          | Some v ->
              Oram.Path_oram.write o ~key (enc_val v);
              Hashtbl.replace model k (enc_val v);
              true
          | None -> Hashtbl.find_opt model k = Oram.Path_oram.read o ~key)
        ops)

(* {1 Bit-identity pins}: digests, byte counters, round trips and
   ciphertext contents of fixed workloads.  Changing any of them means
   the wire behaviour of an ORAM changed.  The tree values were last
   moved by storing one ciphertext per bucket instead of one per slot:
   event counts fell by Z = 4 and bytes, digests and contents moved,
   while the round trips (one [Create_store] frame per store, then the
   accesses' frames) and the linear ORAM's values did not.
   {!check_golden} is also the pin helper of suite core-methods. *)

let cipher () = Crypto.Cell_cipher.create (String.make 16 'K')

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
  check_golden server ~full:0xd391adc94d1931fcL ~shape:0xf9eae8ea0e969ba3L ~count:701
    ~to_server:39744 ~to_client:27552 ~trips:84
    ~content:"a4e4f39c59569841cdbb7c341fce03eb"

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
  check_golden server ~full:0x0a67520980273164L ~shape:0x913dc7f5df228138L ~count:1254
    ~to_server:220768 ~to_client:162688 ~trips:168
    ~content:"615f5bd24573882c6cbf84016abdd5f9"

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
    ~to_server:9984 ~to_client:9216 ~trips:26
    ~content:"b38fc84d24c4a2be62484a64ac55ea1a"

(* {2 Heavy-workload pins}: the goldens above are too light for eviction
      to choose among more than Z eligible stash residents.  Here 60 live
      blocks in a capacity-128 tree make the greedy choice — and so the
      stash iteration order — decide every ciphertext.  The round trips
      and client bytes predate the shared tree core; the rest moved with
      the one-ciphertext-per-bucket layout. *)

let heavy_key i = (i * 37) mod 128

let test_heavy_path ~full ~shape ~count ~to_server ~to_client ~trips ~client
    ~content () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 31 in
  let o =
    Oram.Path_oram.setup ~name:"h-path"
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
  Alcotest.(check int) "client bytes" client (Oram.Path_oram.client_state_bytes o);
  check_golden server ~full ~shape ~count ~to_server ~to_client ~trips ~content

let test_heavy_recursive ~full ~shape ~count ~to_server ~to_client ~trips
    ~client ~content () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 33 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"h-rec"
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
  Alcotest.(check int) "client bytes" client (Oram.Recursive_path_oram.client_state_bytes o);
  check_golden server ~full ~shape ~count ~to_server ~to_client ~trips ~content

(* {2 Data-independence (QCheck)}: two workloads of the same shape (same
   op kinds, same key indices) but different payload bytes must leave
   bit-identical full trace digests.  The payloads feed the encrypt path,
   so this also proves the reused path buffers never leak data into
   addresses, sizes or event order. *)

type variant = Path | Recursive | Linear

let variant_name = function Path -> "path" | Recursive -> "recursive" | Linear -> "linear"

let run_workload variant ~ops ~payload =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 21 in
  let c = cipher () in
  let digest () = Servsim.Trace.full_digest (Servsim.Server.trace server) in
  match variant with
  | Path ->
      let o =
        Oram.Path_oram.setup ~name:"di"
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
      digest ()
  | Recursive ->
      let o =
        Oram.Recursive_path_oram.setup ~name:"di"
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
      digest ()

let qcheck_data_independence variant =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s data-independent trace" (variant_name variant))
    ~count:15
    QCheck.(
      make
        Gen.(list_size (1 -- 40) (pair (int_bound 31) (int_bound 2))))
    (fun ops ->
      let d1 =
        run_workload variant ~ops ~payload:(fun k -> enc_val (k * 3))
      in
      let d2 =
        run_workload variant ~ops ~payload:(fun k -> enc_val (1000 - k))
      in
      Int64.equal d1 d2)

(* {2 Client-memory ledger}: stash and position map flow into the tagged
   client ledger; the snapshot must equal the structure's own accounting
   after a known workload. *)

let test_path_ledger () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 4 in
  let o =
    Oram.Path_oram.setup ~name:"led-path"
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
  (* 16 live keys: position map 16*(8+8) = 256 on top of the stash. *)
  Alcotest.(check bool) "position map charged" true
    (c.Servsim.Cost.client_current_bytes >= 256)

let test_recursive_ledger () =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 6 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"led-rec"
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

(* {2 Remote parity}: the recursive ORAM's per-tree [Exchange] frames
   over the real wire; a remote run must agree with the local run on
   results, client-side digests and round-trip ledger. *)

let test_remote_exchange_parity () =
  let run server =
    let rng = Crypto.Rng.create 17 in
    let o =
      Oram.Recursive_path_oram.setup ~name:"rp-rec"
        { capacity = 64; payload_len = 8; fanout = 8; top_cutoff = 4 }
        server (cipher ()) (Crypto.Rng.int rng)
    in
    for i = 0 to 15 do
      Oram.Recursive_path_oram.write o ~key:i (enc_val (i * 5))
    done;
    let reads = List.init 16 (fun i -> Oram.Recursive_path_oram.read o ~key:i) in
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
  [
    Alcotest.test_case "read empty" `Quick test_read_empty;
    Alcotest.test_case "write/read" `Quick test_write_read;
    Alcotest.test_case "overwrite" `Quick test_overwrite;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "random ops vs model" `Quick test_full_capacity_random_ops;
    Alcotest.test_case "path oram = linear oracle" `Quick test_matches_linear_oracle;
    Alcotest.test_case "stash within 7·log n" `Quick test_stash_within_limit;
    Alcotest.test_case "trace shape data-independent" `Quick test_trace_shape_data_independent;
    Alcotest.test_case "trace shape counts accesses" `Quick test_trace_shape_counts_accesses;
    Alcotest.test_case "access touches one path" `Quick test_access_touches_one_path;
    Alcotest.test_case "dummy access indistinguishable" `Quick test_dummy_access_indistinguishable_shape;
    Alcotest.test_case "leaf uniformity" `Slow test_leaf_uniformity;
    Alcotest.test_case "destroy frees storage" `Quick test_destroy_frees_storage;
    Alcotest.test_case "key length validation" `Quick test_key_length_validation;
    Alcotest.test_case "linear oram basics" `Quick test_linear_oram_basics;
    Alcotest.test_case "linear oram identical full traces" `Quick test_linear_oram_full_trace_identical;
    QCheck_alcotest.to_alcotest qcheck_path_oram_model;
  ]
  @ List.map
      (fun v -> QCheck_alcotest.to_alcotest (qcheck_data_independence v))
      [ Path; Recursive; Linear ]
  @ [
      Alcotest.test_case "golden path digests" `Quick test_golden_path;
      Alcotest.test_case "golden recursive digests" `Quick test_golden_recursive;
      Alcotest.test_case "golden linear digests" `Quick test_golden_linear;
      Alcotest.test_case "heavy path pins" `Quick
        (test_heavy_path ~full:0x43241e1156caa0d8L ~shape:0xdca452737f1bc577L ~count:2207
           ~to_server:118176 ~to_client:93696 ~trips:246 ~client:944
           ~content:"0aa80ef18df6261fd64eac62b9ad2191");
      Alcotest.test_case "heavy recursive pins" `Quick
        (test_heavy_recursive ~full:0x129b3c46cfc742c8L ~shape:0xb7fbbf5ef599e99fL
           ~count:3919 ~to_server:466656 ~to_client:422048 ~trips:732 ~client:16
           ~content:"9ea1847cd359842f0b38eb50c9b2d97f");
      Alcotest.test_case "path ledger" `Quick test_path_ledger;
      Alcotest.test_case "recursive ledger syncs and clears" `Quick test_recursive_ledger;
      Alcotest.test_case "remote Exchange parity" `Quick test_remote_exchange_parity;
    ]
