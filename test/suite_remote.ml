(* Networked mode: the server S is a [Service.Daemon] serving a fresh
   Unix socket from a spawned domain; every block access crosses the
   socket.  Checks protocol correctness end-to-end and that the
   *server-side* trace (recorded where the adversary actually sits)
   matches the client's mirror and stays oblivious. *)

open Relation
open Core

(* One fresh daemon per call, so every run starts from an empty server. *)
let with_remote f =
  Service.Daemon.with_local (fun path _ ->
      let conn = Servsim.Remote.connect_unix path in
      Fun.protect ~finally:(fun () -> Servsim.Remote.close conn) (fun () -> f conn))

let test_wire_roundtrip () =
  with_remote (fun conn ->
      (match Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 4)) with
      | Servsim.Wire.Ok -> ()
      | _ -> Alcotest.fail "create");
      (match
         Servsim.Remote.call conn
           (Servsim.Wire.Exchange { puts = [ ("s", [ (2, "ciphertext!") ]) ]; gets = [] })
       with
      | Servsim.Wire.Values [] -> ()
      | _ -> Alcotest.fail "put");
      (match
         Servsim.Remote.call conn (Servsim.Wire.Exchange { puts = []; gets = [ ("s", [ 2 ]) ] })
       with
      | Servsim.Wire.Values [ v ] -> Alcotest.(check string) "payload" "ciphertext!" v
      | _ -> Alcotest.fail "get");
      match Servsim.Remote.call conn Servsim.Wire.Total_bytes with
      | Servsim.Wire.Bytes_total n -> Alcotest.(check int) "bytes" 11 n
      | _ -> Alcotest.fail "total")

let test_wire_errors () =
  with_remote (fun conn ->
      Alcotest.(check bool) "missing store" true
        (match Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("nope", [ 0 ]) ] with
        | exception Servsim.Wire.Protocol_error _ -> true
        | _ -> false);
      ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 0)));
      Alcotest.(check bool) "duplicate store" true
        (match Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 0)) with
        | exception Servsim.Wire.Protocol_error _ -> true
        | _ -> false);
      Alcotest.(check bool) "out of bounds" true
        (match Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ 99 ]) ] with
        | exception Servsim.Wire.Protocol_error _ -> true
        | _ -> false))

(* A request refused while it is being encoded sends nothing: the next
   frame on the connection is read as sent.  Over-long stores are
   refused before any frame, in local and remote mode alike. *)
let test_refused_frame_leaves_connection_clean () =
  with_remote (fun conn ->
      ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 2)));
      ignore (Servsim.Remote.exchange conn ~puts:[ ("s", [ (0, "zero"); (1, "one") ]) ] ~gets:[]);
      let frames = Servsim.Remote.frames conn in
      Alcotest.(check bool) "index -1 refused" true
        (match Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ -1 ]) ] with
        | exception Servsim.Wire.Protocol_error _ -> true
        | _ -> false);
      Alcotest.(check int) "refused frame not counted" frames (Servsim.Remote.frames conn);
      Alcotest.(check (list string)) "next get reads slot 0" [ "zero" ]
        (Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ 0 ]) ]);
      let too_big server =
        match Servsim.Server.create_store server "big" ~slots:(Servsim.Wire.max_list_len + 1) with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      Alcotest.(check bool) "local: over-long store refused" true
        (too_big (Servsim.Server.create ()));
      let frames = Servsim.Remote.frames conn in
      Alcotest.(check bool) "remote: over-long store refused" true
        (too_big (Servsim.Server.create ~remote:conn ()));
      Alcotest.(check int) "nothing sent" frames (Servsim.Remote.frames conn);
      Alcotest.(check (list string)) "connection still clean" [ "one" ]
        (Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ 1 ]) ]))

let test_block_store_over_wire () =
  with_remote (fun conn ->
      let server = Servsim.Server.create ~remote:conn () in
      let store = Servsim.Server.create_store server "blocks" ~slots:8 in
      Servsim.Block_store.write_many store [ (3, "abc") ];
      Servsim.Block_store.write_many store [ (3, "defgh") ];
      Alcotest.(check string) "read back" "defgh" (Servsim.Block_store.read store 3);
      Alcotest.(check int) "local byte mirror" 5 (Servsim.Block_store.size_bytes store);
      match Servsim.Remote.call conn Servsim.Wire.Total_bytes with
      | Servsim.Wire.Bytes_total n -> Alcotest.(check int) "remote bytes agree" 5 n
      | _ -> Alcotest.fail "total")

let test_oram_over_wire () =
  with_remote (fun conn ->
      let server = Servsim.Server.create ~remote:conn () in
      let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
      let rng = Crypto.Rng.create 3 in
      let o =
        Oram.Path_oram.setup ~name:"o" { capacity = 32; key_len = 8; payload_len = 8 } server
          cipher (Crypto.Rng.int rng)
      in
      for i = 0 to 19 do
        Oram.Path_oram.write o ~key:(Codec.encode_int i) (Codec.encode_int (i * i))
      done;
      for i = 0 to 19 do
        Alcotest.(check (option string)) "read" (Some (Codec.encode_int (i * i)))
          (Oram.Path_oram.read o ~key:(Codec.encode_int i))
      done)

let test_full_protocol_over_wire () =
  with_remote (fun conn ->
      let table = Datasets.Examples.fig1 () in
      let session =
        Session.create ~seed:99 ~remote:conn ~n:(Table.rows table) ~m:(Table.cols table) ()
      in
      let db = Enc_db.outsource session table in
      let result =
        Fdbase.Lattice.discover ~m:(Table.cols table) ~n:(Table.rows table)
          (Sort_method.oracle session db)
      in
      let expect = Fdbase.Tane.fds table in
      let pp fds = String.concat ";" (List.map (Format.asprintf "%a" Fdbase.Fd.pp) fds) in
      Alcotest.(check string) "FDs over the wire" (pp expect) (pp result.Fdbase.Lattice.fds);
      (* The adversary's own recording agrees with the client's mirror. *)
      let trace = Session.trace session in
      Alcotest.(check bool) "server-side trace matches" true
        (Servsim.Remote.digests conn
           ~full:(Servsim.Trace.full_digest trace)
           ~shape:(Servsim.Trace.shape_digest trace)
           ~count:(Servsim.Trace.count trace)))

let test_remote_obliviousness_server_side () =
  (* Run the Sort partition on two different same-size DBs against two
     fresh daemons; the digests recorded *by the servers* must
     be identical. *)
  let run table =
    with_remote (fun conn ->
        let session =
          Session.create ~seed:5 ~remote:conn ~n:(Table.rows table) ~m:(Table.cols table) ()
        in
        let db = Enc_db.outsource session table in
        let h = Sort_method.single db 0 in
        ignore (Sort_method.cardinality h);
        Servsim.Remote.server_digests conn)
  in
  let t1 = Datasets.Rnd.generate_with_domain ~seed:1 ~rows:16 ~cols:2 ~domain:2 () in
  let t2 = Datasets.Rnd.generate_with_domain ~seed:2 ~rows:16 ~cols:2 ~domain:1000 () in
  let f1, s1, c1 = run t1 and f2, s2, c2 = run t2 in
  Alcotest.(check int64) "full digests equal" f1 f2;
  Alcotest.(check int64) "shape digests equal" s1 s2;
  Alcotest.(check int) "counts equal" c1 c2

let test_ex_oram_dynamic_over_wire () =
  with_remote (fun conn ->
      let v x = Value.Int x in
      let schema = Schema.make [| "A" |] in
      let table = Table.make schema [| [| v 1 |]; [| v 2 |]; [| v 1 |] |] in
      let session = Session.create ~seed:7 ~remote:conn ~n:3 ~m:1 () in
      let db = Enc_db.outsource session table in
      let h = Ex_oram_method.single db 0 in
      Alcotest.(check int) "card" 2 (Ex_oram_method.cardinality h);
      Ex_oram_method.delete [ h ] ~row:0;
      Alcotest.(check int) "card after delete" 2 (Ex_oram_method.cardinality h);
      Ex_oram_method.delete [ h ] ~row:2;
      Alcotest.(check int) "card after second delete" 1 (Ex_oram_method.cardinality h))

(* The percentile definition behind every [Stats] reply the daemon
   sends, deterministically: nearest-rank over a known sample set. *)
let test_latency_reservoir_nearest_rank () =
  Alcotest.(check (triple (float 0.) (float 0.) (float 0.)))
    "empty sample reports zeros" (0., 0., 0.) (Service.Metrics.percentiles []);
  (* 1..100 in shuffled order: nearest-rank pk = k for n = 100. *)
  let xs = List.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  let p50, p95, p99 = Service.Metrics.percentiles xs in
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 50. p50;
  Alcotest.(check (float 1e-9)) "p95 of 1..100" 95. p95;
  Alcotest.(check (float 1e-9)) "p99 of 1..100" 99. p99

let suite =
  [
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire errors" `Quick test_wire_errors;
    Alcotest.test_case "refused frame leaves the connection clean" `Quick
      test_refused_frame_leaves_connection_clean;
    Alcotest.test_case "block store over wire" `Quick test_block_store_over_wire;
    Alcotest.test_case "path oram over wire" `Quick test_oram_over_wire;
    Alcotest.test_case "full protocol over wire" `Quick test_full_protocol_over_wire;
    Alcotest.test_case "server-side obliviousness" `Quick test_remote_obliviousness_server_side;
    Alcotest.test_case "ex-oram dynamic over wire" `Quick test_ex_oram_dynamic_over_wire;
    Alcotest.test_case "latency reservoir nearest-rank" `Quick
      test_latency_reservoir_nearest_rank;
  ]
