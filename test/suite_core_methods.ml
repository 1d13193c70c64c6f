(* Core protocol correctness: every oblivious method must compute exactly
   the plaintext partition cardinalities and exactly the TANE FD set. *)

open Relation
open Core

let pp_fds fds = String.concat "; " (List.map (Format.asprintf "%a" Fdbase.Fd.pp) fds)

let random_table ?(seed = 7) ~n ~m ~domain () =
  Datasets.Rnd.generate_with_domain ~seed ~rows:n ~cols:m ~domain ()

let methods = [ Protocol.Or_oram; Protocol.Ex_oram; Protocol.Sort ]

let test_partition_cardinality_single () =
  let t = random_table ~n:50 ~m:3 ~domain:5 () in
  List.iter
    (fun m ->
      for col = 0 to 2 do
        let expect =
          Fdbase.Partition.cardinality (Fdbase.Partition.of_column (Table.column t col))
        in
        let got, _ = Protocol.partition_cardinality m t (Attrset.singleton col) in
        Alcotest.(check int)
          (Printf.sprintf "%s col %d" (Protocol.method_name m) col)
          expect got
      done)
    methods

let test_partition_cardinality_pairs () =
  let t = random_table ~seed:8 ~n:40 ~m:4 ~domain:4 () in
  List.iter
    (fun m ->
      List.iter
        (fun (a, b) ->
          let x = Attrset.of_list [ a; b ] in
          let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
          let got, _ = Protocol.partition_cardinality m t x in
          Alcotest.(check int)
            (Printf.sprintf "%s {%d,%d}" (Protocol.method_name m) a b)
            expect got)
        [ (0, 1); (1, 2); (0, 3) ])
    methods

let test_partition_cardinality_triple () =
  let t = random_table ~seed:9 ~n:30 ~m:4 ~domain:3 () in
  let x = Attrset.of_list [ 0; 1; 2 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  List.iter
    (fun m ->
      let got, _ = Protocol.partition_cardinality m t x in
      Alcotest.(check int) (Protocol.method_name m) expect got)
    methods

let test_discover_fig1 () =
  let t = Datasets.Examples.fig1 () in
  let expect = Fdbase.Tane.fds t in
  List.iter
    (fun m ->
      let r = Protocol.discover m t in
      Alcotest.(check string) (Protocol.method_name m) (pp_fds expect) (pp_fds r.Protocol.fds))
    methods

let test_discover_employee () =
  let t = Datasets.Examples.employee () in
  let expect = Fdbase.Tane.fds t in
  List.iter
    (fun m ->
      let r = Protocol.discover m t in
      Alcotest.(check string) (Protocol.method_name m) (pp_fds expect) (pp_fds r.Protocol.fds);
      (* The paper's §I motivation: Position → Department must hold. *)
      let schema = Table.schema t in
      let pos = Schema.index schema "Position" and dep = Schema.index schema "Department" in
      Alcotest.(check bool) "Position -> Department" true
        (List.exists
           (fun fd -> Fdbase.Fd.equal fd { Fdbase.Fd.lhs = Attrset.singleton pos; rhs = dep })
           r.Protocol.fds))
    methods

let test_discover_random_matches_tane () =
  List.iter
    (fun seed ->
      let t = random_table ~seed ~n:24 ~m:4 ~domain:3 () in
      let expect = Fdbase.Tane.fds t in
      List.iter
        (fun m ->
          let r = Protocol.discover m t in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d" (Protocol.method_name m) seed)
            (pp_fds expect) (pp_fds r.Protocol.fds))
        methods)
    [ 1; 2; 3 ]

let test_discover_dataset_samples () =
  (* Small samples of the three "real-world" stand-ins. *)
  let rng = Crypto.Rng.create 99 in
  let tables =
    [
      ("adult", Datasets.Adult_like.generate ~rows:64 ());
      ("letter", Datasets.Letter_like.generate ~rows:64 ());
      ("flight", Datasets.Flight_like.generate ~rows:64 ());
    ]
  in
  List.iter
    (fun (name, full) ->
      let t = Table.sample_rows full (Crypto.Rng.int rng) 32 in
      let expect = (Fdbase.Tane.discover ~max_lhs:2 t).Fdbase.Lattice.fds in
      List.iter
        (fun m ->
          let r = Protocol.discover ~max_lhs:2 m t in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s" (Protocol.method_name m) name)
            (pp_fds expect) (pp_fds r.Protocol.fds))
        methods)
    tables

let test_enclave_matches_tane () =
  let t = random_table ~seed:5 ~n:32 ~m:4 ~domain:3 () in
  let expect = Fdbase.Tane.fds t in
  let r = Enclave.discover t in
  Alcotest.(check string) "enclave sort" (pp_fds expect) (pp_fds r.Protocol.fds)

let test_enclave_partition () =
  let t = random_table ~seed:6 ~n:50 ~m:3 ~domain:4 () in
  let x = Attrset.of_list [ 0; 1 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  let card, dt = Enclave.partition_cardinality t x in
  Alcotest.(check int) "cardinality" expect card;
  Alcotest.(check bool) "time positive" true (dt >= 0.0)

let test_sort_method_networks_agree () =
  let t = random_table ~seed:12 ~n:40 ~m:3 ~domain:4 () in
  let x = Attrset.of_list [ 0; 2 ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  let session = Session.create ~n:40 ~m:3 () in
  let db = Enc_db.outsource session t in
  let run network =
    let h1 = Sort_method.single ~network db 0 in
    let h2 = Sort_method.single ~network db 2 in
    Sort_method.cardinality (Sort_method.combine ~network session x h1 h2)
  in
  Alcotest.(check int) "bitonic" expect (run Sort_method.Bitonic);
  Alcotest.(check int) "odd-even-merge" expect (run Sort_method.Odd_even_merge)

let test_sort_labels_preserve_partition () =
  (* The label array of Sort must induce the same partition as plaintext. *)
  let t = random_table ~seed:13 ~n:30 ~m:2 ~domain:3 () in
  let session = Session.create ~n:30 ~m:2 () in
  let db = Enc_db.outsource session t in
  let h = Sort_method.single db 0 in
  let labels = Sort_method.labels h in
  let col = Table.column t 0 in
  for i = 0 to 29 do
    for j = 0 to 29 do
      Alcotest.(check bool)
        (Printf.sprintf "rows %d,%d" i j)
        (Value.equal col.(i) col.(j))
        (labels.(i) = labels.(j))
    done
  done

let test_or_oram_labels_preserve_partition () =
  let t = random_table ~seed:14 ~n:25 ~m:2 ~domain:3 () in
  let session = Session.create ~n:25 ~m:2 () in
  let db = Enc_db.outsource session t in
  let h = Or_oram_method.single db 1 in
  let col = Table.column t 1 in
  let labels = Array.init 25 (fun row -> Or_oram_method.label_of_row h ~row) in
  for i = 0 to 24 do
    for j = 0 to 24 do
      Alcotest.(check bool)
        (Printf.sprintf "rows %d,%d" i j)
        (Value.equal col.(i) col.(j))
        (labels.(i) = labels.(j))
    done
  done

let test_string_values_supported () =
  let t = Datasets.Examples.employee () in
  let x = Schema.attrset_of_names (Table.schema t) [ "Position" ] in
  let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table t x) in
  List.iter
    (fun m ->
      let got, _ = Protocol.partition_cardinality m t x in
      Alcotest.(check int) (Protocol.method_name m) expect got)
    methods

let test_parallel_sort_method () =
  let t = random_table ~seed:15 ~n:64 ~m:2 ~domain:5 () in
  let session = Session.create ~n:64 ~m:2 () in
  let db = Enc_db.outsource session t in
  (* Tracing off during multi-domain execution. *)
  Servsim.Trace.set_enabled (Session.trace session) false;
  let h = Sort_method.single ~domains:4 db 0 in
  let expect =
    Fdbase.Partition.cardinality (Fdbase.Partition.of_column (Table.column t 0))
  in
  Alcotest.(check int) "parallel cardinality" expect (Sort_method.cardinality h)

(* Every ciphertext a session's sorts leave on the server carries an IV
   of its own, in the parallel mode (Fig. 6a) too: the worker ciphers
   must not replay one IV stream from one sort to the next. *)
let test_sort_ivs_not_repeated () =
  let t = random_table ~seed:15 ~n:64 ~m:2 ~domain:5 () in
  List.iter
    (fun domains ->
      let session = Session.create ~n:64 ~m:2 () in
      let db = Enc_db.outsource session t in
      Servsim.Trace.set_enabled (Session.trace session) false;
      ignore (Sort_method.single ~domains db 0);
      ignore (Sort_method.single ~domains db 1);
      let server = session.Session.server in
      let seen = Hashtbl.create 256 and repeated = ref 0 in
      List.iter
        (fun name ->
          if String.starts_with ~prefix:"sort-" name then begin
            let st = Servsim.Server.find_store server name in
            for i = 0 to Servsim.Block_store.length st - 1 do
              let iv = String.sub (Servsim.Block_store.read st i) 0 16 in
              if Hashtbl.mem seen iv then incr repeated else Hashtbl.add seen iv ()
            done
          end)
        (Servsim.Server.store_names server);
      Alcotest.(check int) "ciphertexts inspected" 128 (Hashtbl.length seen + !repeated);
      Alcotest.(check int) (Printf.sprintf "%d domain(s): repeated IVs" domains) 0 !repeated)
    [ 1; 2 ]

(* Worker domains would race on the shared trace and cost ledger, and
   would interleave frames on one socket: such parallel sorts are refused
   before any worker starts. *)
let test_parallel_sort_refused () =
  let t = random_table ~seed:15 ~n:16 ~m:2 ~domain:5 () in
  let refused db =
    match Sort_method.single ~domains:2 db 0 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let session = Session.create ~n:16 ~m:2 () in
  Alcotest.(check bool) "traced session refused" true
    (refused (Enc_db.outsource session t));
  Suite_remote.with_remote (fun conn ->
      let session = Session.create ~remote:conn ~n:16 ~m:2 () in
      let db = Enc_db.outsource session t in
      Servsim.Trace.set_enabled (Session.trace session) false;
      Alcotest.(check bool) "remote session refused" true (refused db))

(* {2 Sort bit-identity pins}: trace digests, ledger and ciphertext
      content of a whole Sort discovery and of one single-attribute sort
      plus label reads, captured before the backend became batch-only. *)

let golden_table () = random_table ~seed:21 ~n:24 ~m:3 ~domain:4 ()

let test_golden_sort_discover () =
  let t = golden_table () in
  let full = 0x1b71e2b58db2d2cdL and shape = 0x87daca19be00f5e5L and count = 14560
  and to_server = 472972 and to_client = 457344 and trips = 7186 in
  let r = Protocol.discover ~seed:4242 Protocol.Sort t in
  Alcotest.(check int64) "report full digest" full r.Protocol.trace_full;
  Alcotest.(check int64) "report shape digest" shape r.Protocol.trace_shape;
  Alcotest.(check int) "report event count" count r.Protocol.trace_count;
  Alcotest.(check int) "report bytes to server" to_server
    r.Protocol.cost.Servsim.Cost.bytes_to_server;
  Alcotest.(check int) "report bytes to client" to_client
    r.Protocol.cost.Servsim.Cost.bytes_to_client;
  Alcotest.(check int) "report round trips" trips r.Protocol.cost.Servsim.Cost.round_trips;
  (* The same run step by step, to reach the stores it leaves behind. *)
  let session = Session.create ~seed:4242 ~n:24 ~m:3 () in
  let db = Enc_db.outsource session t in
  ignore
    (Fdbase.Lattice.discover ~m:3 ~n:24 ~check:(Set_level.check session)
       (Sort_method.oracle session db));
  Suite_oram_cache.check_golden session.Session.server ~full ~shape ~count ~to_server
    ~to_client ~trips ~content:"daf292f653fffdfc8141b9b665f97c39"

let test_golden_sort_single () =
  let t = golden_table () in
  let session = Session.create ~seed:4243 ~n:24 ~m:3 () in
  let db = Enc_db.outsource session t in
  let h = Sort_method.single db 1 in
  Alcotest.(check (list int)) "labels"
    [ 3; 1; 1; 3; 3; 0; 3; 3; 1; 2; 1; 1; 1; 3; 1; 2; 3; 1; 2; 1; 3; 3; 3; 3 ]
    (List.init 24 (fun row -> Sort_method.label_of_row h ~row));
  Suite_oram_cache.check_golden session.Session.server ~full:0xaa6bf671d3de6d4dL
    ~shape:0xcbb42227c90cea45L ~count:2152 ~to_server:70528 ~to_client:65664 ~trips:1063
    ~content:"252b8e25ff1032196ac1a1524f343df9"

let test_lattice_releases_storage () =
  (* The lattice releases pruned/used handles; after discovery the server
     holds little beyond the encrypted database itself. *)
  let t = random_table ~seed:17 ~n:24 ~m:4 ~domain:3 () in
  let session = Session.create ~n:24 ~m:4 () in
  let db = Enc_db.outsource session t in
  ignore db;
  let db_bytes = Servsim.Server.total_bytes session.Session.server in
  ignore (Fdbase.Lattice.discover ~m:4 ~n:24 (Or_oram_method.oracle session db));
  let after = Servsim.Server.total_bytes session.Session.server in
  Alcotest.(check bool)
    (Printf.sprintf "after %dB <= db %dB (all ORAMs released)" after db_bytes)
    true (after <= db_bytes)

let test_cost_report_sane () =
  let t = random_table ~seed:16 ~n:32 ~m:3 ~domain:4 () in
  let r = Protocol.discover Protocol.Sort t in
  Alcotest.(check bool) "bytes moved" true (r.Protocol.cost.Servsim.Cost.bytes_to_client > 0);
  Alcotest.(check bool) "round trips" true (r.Protocol.cost.Servsim.Cost.round_trips > 0);
  Alcotest.(check bool) "elapsed positive" true (r.Protocol.elapsed_s > 0.0);
  Alcotest.(check bool) "trace nonempty" true (r.Protocol.trace_count > 0)

let suite =
  [
    Alcotest.test_case "partition |X|=1 = plaintext" `Quick test_partition_cardinality_single;
    Alcotest.test_case "partition |X|=2 = plaintext" `Quick test_partition_cardinality_pairs;
    Alcotest.test_case "partition |X|=3 = plaintext" `Quick test_partition_cardinality_triple;
    Alcotest.test_case "discover = TANE on Fig. 1" `Quick test_discover_fig1;
    Alcotest.test_case "discover = TANE on employee" `Quick test_discover_employee;
    Alcotest.test_case "discover = TANE on random tables" `Slow test_discover_random_matches_tane;
    Alcotest.test_case "discover = TANE on dataset samples" `Slow test_discover_dataset_samples;
    Alcotest.test_case "enclave discover = TANE" `Quick test_enclave_matches_tane;
    Alcotest.test_case "enclave partition" `Quick test_enclave_partition;
    Alcotest.test_case "bitonic = odd-even-merge results" `Quick test_sort_method_networks_agree;
    Alcotest.test_case "sort labels preserve partition" `Quick test_sort_labels_preserve_partition;
    Alcotest.test_case "or-oram labels preserve partition" `Quick test_or_oram_labels_preserve_partition;
    Alcotest.test_case "string values supported" `Quick test_string_values_supported;
    Alcotest.test_case "parallel sort method" `Quick test_parallel_sort_method;
    Alcotest.test_case "no repeated IV across sort stores" `Quick test_sort_ivs_not_repeated;
    Alcotest.test_case "unsafe parallel sorts refused" `Quick test_parallel_sort_refused;
    Alcotest.test_case "sort discover pins" `Quick test_golden_sort_discover;
    Alcotest.test_case "sort single + label_of_row pins" `Quick test_golden_sort_single;
    Alcotest.test_case "lattice releases storage" `Quick test_lattice_releases_storage;
    Alcotest.test_case "cost report sane" `Quick test_cost_report_sane;
  ]
