(* ORAM client cost: variant x capacity sweep.

   For each configuration this harness drives a fixed write/read mix and
   reports, per access: blocks touched (trace events), bytes moved (both
   directions), wall-clock ns, round trips, and the modeled network time
   at WAN latency (the same rtt/gbps model as
   [Core.Protocol.modeled_network_seconds]) — plus the client-side bytes
   each variant holds.  Everything is written to BENCH_oram.json.

   Two allocation bars are asserted, not just reported, so `--smoke` on
   every `dune runtest` catches regressions: decoding a bucket cell into
   the reused path buffer allocates nothing, and a whole path access at
   n = 64 stays under 1,100 minor words (the outgoing ciphertext freeze
   is the only per-bucket client allocation left). *)

let cipher = lazy (Crypto.Cell_cipher.create (String.make 16 'K'))

type row = {
  variant : string;
  capacity : int;
  path_levels : int; (* data-tree levels+1, or store slots for linear *)
  accesses : int;
  blocks_per_access : float;
  bytes_per_access : float;
  ns_per_access : float;
  round_trips_per_access : float;
  modeled_network_s_per_access : float;
  client_bytes : int;
  minor_words_per_access : float;
}

(* The modeled WAN: same defaults as Core.Protocol.modeled_network_seconds. *)
let modeled ~trips ~bytes =
  (trips *. 2e-4) +. (bytes *. 8.0 /. 1e9)

let measure ~variant ~capacity ~path_levels ~accesses ~client_bytes f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let ev, bytes, trips = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let n = float_of_int accesses in
  {
    variant;
    capacity;
    path_levels;
    accesses;
    blocks_per_access = float_of_int ev /. n;
    bytes_per_access = float_of_int bytes /. n;
    ns_per_access = dt *. 1e9 /. n;
    round_trips_per_access = float_of_int trips /. n;
    modeled_network_s_per_access =
      modeled ~trips:(float_of_int trips /. n) ~bytes:(float_of_int bytes /. n);
    client_bytes;
    minor_words_per_access = words /. n;
  }

(* Run [accesses] operations (2/3 writes, 1/3 reads over a uniform key
   mix), counting only the steady-state traffic: setup is excluded. *)
let deltas server f =
  let tr = Servsim.Server.trace server in
  let cost = Servsim.Server.cost server in
  let ev0 = Servsim.Trace.count tr in
  let c0 = Servsim.Cost.snapshot cost in
  f ();
  let c1 = Servsim.Cost.snapshot cost in
  ( Servsim.Trace.count tr - ev0,
    c1.Servsim.Cost.bytes_to_server - c0.Servsim.Cost.bytes_to_server
    + c1.Servsim.Cost.bytes_to_client - c0.Servsim.Cost.bytes_to_client,
    c1.Servsim.Cost.round_trips - c0.Servsim.Cost.round_trips )

let run_path ~capacity ~accesses =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 7 in
  let o =
    Oram.Path_oram.setup ~name:"bench"
      { capacity; key_len = 8; payload_len = 8 }
      server (Lazy.force cipher) (Crypto.Rng.int rng)
  in
  let key i = Relation.Codec.encode_int (i mod capacity) in
  (* Warm the tree before measuring. *)
  for i = 0 to (capacity / 2) - 1 do
    Oram.Path_oram.write o ~key:(key i) (Relation.Codec.encode_int i)
  done;
  let row =
    measure ~variant:"path" ~capacity
      ~path_levels:(Oram.Path_oram.levels o + 1)
      ~accesses
      ~client_bytes:(Oram.Path_oram.client_state_bytes o)
      (fun () ->
        deltas server (fun () ->
            for i = 0 to accesses - 1 do
              if i mod 3 = 2 then ignore (Oram.Path_oram.read o ~key:(key i))
              else Oram.Path_oram.write o ~key:(key i) (Relation.Codec.encode_int i)
            done))
  in
  assert (Oram.Path_oram.stash_overflows o = 0);
  row

let run_recursive ~capacity ~accesses =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 7 in
  let o =
    Oram.Recursive_path_oram.setup ~name:"bench"
      { capacity; payload_len = 8; fanout = 16; top_cutoff = 8 }
      server (Lazy.force cipher) (Crypto.Rng.int rng)
  in
  for i = 0 to (capacity / 2) - 1 do
    Oram.Recursive_path_oram.write o ~key:i (Relation.Codec.encode_int i)
  done;
  measure ~variant:"recursive" ~capacity
    ~path_levels:(Oram.Recursive_path_oram.recursion_depth o)
    ~accesses
    ~client_bytes:(Oram.Recursive_path_oram.client_state_bytes o)
    (fun () ->
      deltas server (fun () ->
          for i = 0 to accesses - 1 do
            let k = i mod capacity in
            if i mod 3 = 2 then ignore (Oram.Recursive_path_oram.read o ~key:k)
            else Oram.Recursive_path_oram.write o ~key:k (Relation.Codec.encode_int i)
          done))

let run_linear ~capacity ~accesses =
  let server = Servsim.Server.create () in
  let rng = Crypto.Rng.create 7 in
  let o =
    Oram.Linear_oram.setup ~name:"bench"
      { capacity; key_len = 8; payload_len = 8 }
      server (Lazy.force cipher) (Crypto.Rng.int rng)
  in
  let key i = Relation.Codec.encode_int (i mod capacity) in
  for i = 0 to (capacity / 2) - 1 do
    Oram.Linear_oram.write o ~key:(key i) (Relation.Codec.encode_int i)
  done;
  measure ~variant:"linear" ~capacity ~path_levels:capacity ~accesses
    ~client_bytes:(Oram.Linear_oram.client_state_bytes o)
    (fun () ->
      deltas server (fun () ->
          for i = 0 to accesses - 1 do
            if i mod 3 = 2 then ignore (Oram.Linear_oram.read o ~key:(key i))
            else Oram.Linear_oram.write o ~key:(key i) (Relation.Codec.encode_int i)
          done))

let print_row r =
  Printf.printf "  %-9s n=%-5d %6.1f blk/acc  %8.0f B/acc  %9.0f ns/acc  %5.2f rt/acc  %7.3f ms net  %s client\n%!"
    r.variant r.capacity r.blocks_per_access r.bytes_per_access r.ns_per_access
    r.round_trips_per_access
    (r.modeled_network_s_per_access *. 1e3)
    (Bench_util.pretty_bytes r.client_bytes)

let json_row oc r ~last =
  Printf.fprintf oc
    "    {\"variant\": \"%s\", \"capacity\": %d, \"path_levels\": %d,\n\
    \     \"accesses\": %d, \"blocks_per_access\": %.3f, \"bytes_per_access\": %.1f,\n\
    \     \"ns_per_access\": %.1f, \"round_trips_per_access\": %.3f,\n\
    \     \"modeled_network_s_per_access\": %.6f, \"client_bytes\": %d,\n\
    \     \"minor_words_per_access\": %.1f}%s\n"
    r.variant r.capacity r.path_levels r.accesses r.blocks_per_access
    r.bytes_per_access r.ns_per_access r.round_trips_per_access r.modeled_network_s_per_access
    r.client_bytes r.minor_words_per_access
    (if last then "" else ",")

let run (opts : Bench_util.opts) =
  Bench_util.header "ORAM client cost (variant x capacity)";
  (* Read before a full run rewrites BENCH_oram.json, which would mark
     the checkout dirty. *)
  let git_rev = Bench_util.git_rev () in
  let accesses = if opts.Bench_util.smoke then 120 else 1500 in
  let path_caps = if opts.Bench_util.full then [ 64; 256; 1024 ] else [ 64; 256 ] in
  let rec_caps = if opts.Bench_util.full then [ 128; 512; 2048 ] else [ 128 ] in
  let lin_caps = [ 32 ] in
  let rows =
    List.concat
      [
        List.map (fun capacity -> run_path ~capacity ~accesses) path_caps;
        List.map (fun capacity -> run_recursive ~capacity ~accesses) rec_caps;
        List.map (fun capacity -> run_linear ~capacity ~accesses:(accesses / 4)) lin_caps;
      ]
  in
  List.iter print_row rows;

  (* Allocation bars.  First the codec primitive itself: decrypting one
     bucket cell (Z = 4 slots of flag, 8-byte key, 8-byte payload: the
     path rows' layout) into the reused path buffer and reading its
     header fields must allocate nothing. *)
  let decode_words =
    let c = Lazy.force cipher in
    let pt = String.make (4 * 17) 'x' in
    let ct = Crypto.Cell_cipher.encrypt c pt in
    let buf = Bytes.create (String.length ct - 16) in
    let iters = 10_000 in
    let sink = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      let n = Crypto.Cell_cipher.decrypt_to c ct buf 0 in
      sink := !sink + n + Char.code (Bytes.get buf 0)
    done;
    ignore (Sys.opaque_identity !sink);
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  Printf.printf "\n  bucket decode: %.3f minor words/bucket (bar: < 1 — allocation-free)\n%!"
    decode_words;
  assert (decode_words < 1.0);
  (* Then the whole access pipeline (client codec + in-process server
     emulation + trace events) at n = 64, as a regression guard: the
     only real per-bucket client allocation left is the outgoing
     ciphertext freeze; the live slots entering the stash decode into
     fresh key and payload strings. *)
  let p = List.hd rows in
  assert (p.variant = "path" && p.capacity = 64);
  let words_per_access = p.minor_words_per_access in
  Printf.printf "  path access pipeline (n = 64): %.0f minor words/access (bar: < 1100)\n%!"
    words_per_access;
  assert (words_per_access < 1100.0);

  Bench_util.write_bench_json opts "BENCH_oram.json" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"sfdd-bench-oram/4\",\n\
        \  \"smoke\": %b,\n\
        \  \"git_rev\": %S,\n\
        \  \"host_cores\": %d,\n\
        \  \"workload\": \"2/3 writes, 1/3 reads, uniform keys, warm tree\",\n\
        \  \"bucket_decode_minor_words\": %.3f,\n\
        \  \"path64_access_minor_words\": %.1f,\n\
        \  \"rows\": [\n"
        opts.Bench_util.smoke git_rev
        (Domain.recommended_domain_count ())
        decode_words words_per_access;
      List.iteri (fun i r -> json_row oc r ~last:(i = List.length rows - 1)) rows;
      Printf.fprintf oc "  ]\n}\n")
