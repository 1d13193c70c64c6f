(* The durable tenant store: CRC-framed segment log, snapshot + journal
   recovery, and the Session/Daemon layers above it.  The acceptance bar
   throughout is bit-identity: a tenant recovered from disk — after a
   torn-tail crash, a snapshot rotation, an LRU eviction, or a full
   daemon restart — must have the same stores, trace digests and cost
   ledger as a session that was never interrupted. *)

module Wire = Servsim.Wire
module Handler = Store.Handler
module Trace = Servsim.Trace
module Cost = Servsim.Cost

let tmp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Store.Fsio.mkdirs path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_tmp_dir prefix f =
  let dir = tmp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Everything persistence must preserve, as one comparable value. *)
let fingerprint st =
  let tr = Handler.trace st in
  ( Handler.export_stores st,
    Trace.full_digest tr,
    Trace.shape_digest tr,
    Trace.count tr,
    Cost.snapshot (Handler.cost st) )

let check_identical msg a b =
  Alcotest.(check bool) (msg ^ ": stores, digests and ledger bit-identical") true
    (fingerprint a = fingerprint b)

(* One-slot [Exchange] frames. *)
let put s i c = Wire.Exchange { puts = [ (s, [ (i, c) ]) ]; gets = [] }
let get s i = Wire.Exchange { puts = []; gets = [ (s, [ i ]) ] }

(* A request mix covering every journaled shape: mutations, reads (which
   fold into the digests and so must replay too), batches, a frame that
   writes and reads, probes. *)
let workload_a =
  [ Wire.Create_store ("s", 8) ]
  @ List.init 8 (fun i ->
        put "s" i (String.make 24 (Char.chr (97 + i))))
  @ [
      get "s" 3;
      Wire.Exchange { puts = []; gets = [ ("s", [ 0; 2; 4 ]) ] };
      Wire.Exchange { puts = [ ("s", [ (1, "one"); (5, "five") ]) ]; gets = [ ("s", [ 5; 6 ]) ] };
      Wire.Digest;
      Wire.Total_bytes;
      Wire.Ping;
      get "s" 99 (* out of bounds: served as Error, still journaled *);
    ]

let workload_b =
  [ Wire.Create_store ("t", 4) ]
  @ List.init 4 (fun i -> put "t" i (String.make 16 'q'))
  @ [ get "t" 1; Wire.Stats; Wire.Drop_store "t" ]

(* The reference: the same requests served by one uninterrupted session. *)
let reference reqs =
  let st = Handler.create_state () in
  List.iter (Handler.replay st) reqs;
  st

(* Serve [reqs] against a live journaled tenant, as the daemon would:
   dispatch, then journal. *)
let serve t state reqs =
  List.iter
    (fun req ->
      Handler.replay state req;
      Store.Tenant.journal t ~state req)
    reqs

(* {2 CRC-32} *)

let test_crc32_kat () =
  Alcotest.(check int) "standard check value" 0xCBF43926 (Store.Crc32.digest "123456789");
  Alcotest.(check int) "empty string" 0 (Store.Crc32.digest "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let split =
    List.fold_left
      (fun crc (off, len) -> Store.Crc32.update crc s ~off ~len)
      0
      [ (0, 7); (7, 0); (7, 20); (27, String.length s - 27) ]
  in
  Alcotest.(check int) "streaming equals one-shot" (Store.Crc32.digest s) split

(* {2 Segment framing} *)

let payloads = [ "alpha"; ""; String.make 300 'b'; "\x00\xff\x00"; "tail" ]

let segment_of records =
  let buf = Buffer.create 256 in
  List.iter (Store.Segment.add_record buf) records;
  Buffer.contents buf

let test_segment_roundtrip () =
  let data = segment_of payloads in
  let scan = Store.Segment.parse data in
  Alcotest.(check bool) "records round-trip" true (scan.records = payloads);
  Alcotest.(check int) "whole segment valid" (String.length data) scan.valid;
  Alcotest.(check bool) "not torn" false scan.torn;
  let empty = Store.Segment.parse "" in
  Alcotest.(check bool) "empty segment" true
    (empty.records = [] && empty.valid = 0 && not empty.torn)

(* Record boundaries within a segment, for the exhaustive tear matrix. *)
let boundaries records =
  let _, rev =
    List.fold_left
      (fun (off, acc) r ->
        let off = off + 8 + String.length r in
        (off, off :: acc))
      (0, [ 0 ])
      records
  in
  List.rev rev

(* A segment cut at every possible byte offset: the parse must keep
   exactly the records whose frames fit, report the cut as torn unless
   it lands on a record boundary, and place [valid] at the last
   boundary before the cut. *)
let test_segment_torn_at_every_offset () =
  let data = segment_of payloads in
  let bounds = boundaries payloads in
  for cut = 0 to String.length data do
    let scan = Store.Segment.parse (String.sub data 0 cut) in
    let expect_valid = List.fold_left (fun acc b -> if b <= cut then b else acc) 0 bounds in
    let expect_n = List.length (List.filter (fun b -> b <> 0 && b <= cut) bounds) in
    Alcotest.(check int) (Printf.sprintf "valid prefix at cut %d" cut) expect_valid scan.valid;
    Alcotest.(check int)
      (Printf.sprintf "records kept at cut %d" cut)
      expect_n
      (List.length scan.records);
    Alcotest.(check bool)
      (Printf.sprintf "torn flag at cut %d" cut)
      (cut > expect_valid) scan.torn
  done

(* A flipped byte is indistinguishable from a torn tail at that record:
   everything before it survives, nothing after it is trusted. *)
let test_segment_crc_flip () =
  let data = segment_of payloads in
  let bounds = boundaries payloads in
  let last_start = List.nth bounds (List.length bounds - 2) in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  (* Flip inside the last record's payload. *)
  let scan = Store.Segment.parse (flip data (last_start + 8)) in
  Alcotest.(check bool) "prior records survive a tail flip" true
    (scan.records = List.filteri (fun i _ -> i < List.length payloads - 1) payloads);
  Alcotest.(check int) "valid stops before the flipped record" last_start scan.valid;
  Alcotest.(check bool) "flip reported as torn" true scan.torn;
  (* Flip inside the first record's payload: nothing is trusted. *)
  let scan0 = Store.Segment.parse (flip data 8) in
  Alcotest.(check bool) "first-record flip yields empty scan" true
    (scan0.records = [] && scan0.valid = 0 && scan0.torn)

(* {2 Tenant journal recovery} *)

let test_tenant_reopen_without_close () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let t, st = Store.Tenant.open_ ~data_dir ~snapshot_every:0 "crashy" in
      serve t st workload_a;
      (* Crash: no snapshot, no close, no sync.  (The writer's appends
         went through write(2), so the bytes are in the file even though
         the fd is still open.) *)
      let t2, recovered = Store.Tenant.open_ ~data_dir ~snapshot_every:0 "crashy" in
      check_identical "journal-only recovery" (reference workload_a) recovered;
      Store.Tenant.close t2;
      Store.Tenant.close t)

let test_tenant_snapshot_midway () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let t, st = Store.Tenant.open_ ~data_dir ~snapshot_every:0 "rotated" in
      serve t st workload_a;
      Store.Tenant.snapshot t st;
      Alcotest.(check int) "journal reset after snapshot" 0 (Store.Tenant.wal_records t);
      Alcotest.(check int) "generation advanced" 1 (Store.Tenant.generation t);
      serve t st workload_b;
      let t2, recovered = Store.Tenant.open_ ~data_dir ~snapshot_every:0 "rotated" in
      check_identical "snapshot + journal recovery"
        (reference (workload_a @ workload_b))
        recovered;
      Store.Tenant.close t2;
      Store.Tenant.close t)

let test_tenant_auto_snapshot () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let t, st = Store.Tenant.open_ ~data_dir ~snapshot_every:5 "auto" in
      serve t st (workload_a @ workload_b);
      Alcotest.(check bool) "auto-snapshot rotated the journal" true
        (Store.Tenant.generation t > 0);
      Alcotest.(check bool) "journal stays under the threshold" true
        (Store.Tenant.wal_records t < 5);
      let t2, recovered = Store.Tenant.open_ ~data_dir ~snapshot_every:5 "auto" in
      check_identical "recovery across auto-snapshots"
        (reference (workload_a @ workload_b))
        recovered;
      Store.Tenant.close t2;
      Store.Tenant.close t)

(* The exhaustive crash matrix: truncate the journal at every byte
   offset.  Recovery must come back with exactly the requests whose
   frames survived whole — for a cut inside record m+1, that is the
   reference state after the first m requests. *)
let test_tenant_truncated_at_every_offset () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let ns = "torn" in
      let t, st = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      serve t st workload_a;
      Store.Tenant.sync t;
      Store.Tenant.close t;
      let dir = Store.Tenant.tenant_dir ~data_dir ns in
      let wal = Store.Tenant.wal_path ~dir ~gen:0 in
      let full =
        match Store.Fsio.read_file wal with
        | Some s -> s
        | None -> Alcotest.fail "journal file missing"
      in
      (* Frame sizes are canonical, so boundaries are computable. *)
      let frames = List.map Wire.request_size workload_a in
      let bounds = boundaries (List.map (fun n -> String.make n ' ') frames) in
      Alcotest.(check int) "journal length matches canonical frame sizes"
        (List.nth bounds (List.length bounds - 1))
        (String.length full);
      let refs = Array.make (List.length workload_a + 1) (Handler.create_state ()) in
      List.iteri
        (fun i _ ->
          let st = Handler.create_state () in
          List.iteri (fun j r -> if j <= i then Handler.replay st r) workload_a;
          refs.(i + 1) <- st)
        workload_a;
      for cut = 0 to String.length full do
        Store.Fsio.write_file_atomic ~path:wal (String.sub full 0 cut);
        let m = List.length (List.filter (fun b -> b <> 0 && b <= cut) bounds) in
        let t2, recovered = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
        Alcotest.(check bool)
          (Printf.sprintf "cut at byte %d recovers first %d requests" cut m)
          true
          (fingerprint recovered = fingerprint refs.(m));
        Store.Tenant.close t2
      done)

(* Recovery truncates a torn tail and appends over it: journaling past a
   crash, then recovering again, must not resurrect the garbage. *)
let test_tenant_journal_past_torn_tail () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let ns = "regrown" in
      let t, st = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      serve t st workload_a;
      Store.Tenant.sync t;
      Store.Tenant.close t;
      let dir = Store.Tenant.tenant_dir ~data_dir ns in
      let wal = Store.Tenant.wal_path ~dir ~gen:0 in
      (match Store.Fsio.read_file wal with
      | Some s -> Store.Fsio.write_file_atomic ~path:wal (s ^ "\x99\x00\x00\x00garbage")
      | None -> Alcotest.fail "journal file missing");
      let t2, st2 = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      check_identical "garbage tail discarded" (reference workload_a) st2;
      serve t2 st2 workload_b;
      Store.Tenant.sync t2;
      Store.Tenant.close t2;
      let t3, st3 = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      check_identical "appends after a torn tail recover cleanly"
        (reference (workload_a @ workload_b))
        st3;
      Store.Tenant.close t3)

let test_tenant_corrupt_snapshot_refused () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let ns = "damaged" in
      let t, st = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      serve t st workload_a;
      Store.Tenant.snapshot t st;
      Store.Tenant.close t;
      let dir = Store.Tenant.tenant_dir ~data_dir ns in
      let snap = Store.Tenant.snapshot_path ~dir in
      let whole =
        match Store.Fsio.read_file snap with
        | Some s -> s
        | None -> Alcotest.fail "snapshot missing"
      in
      let refused () =
        match Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns with
        | exception Store.Tenant.Corrupt _ -> true
        | _ -> false
      in
      Store.Fsio.write_file_atomic ~path:snap (String.sub whole 0 (String.length whole / 2));
      Alcotest.(check bool) "half a snapshot is Corrupt, not silently wrong state" true
        (refused ());
      (* A well-framed record carrying a retired verb is refused whole,
         not half-loaded: the v6 single-slot write (tag 5), v7's store
         growth (tag 3), batch read (tag 9) and cross-store write
         (tag 18), and a v7 [Create_store] with no slot count. *)
      let with_record what payload =
        let buf = Buffer.create (String.length whole + 32) in
        Buffer.add_string buf whole;
        Store.Segment.add_record buf payload;
        Store.Fsio.write_file_atomic ~path:snap (Buffer.contents buf);
        Alcotest.(check bool) (what ^ " in a snapshot is Corrupt") true (refused ())
      in
      with_record "retired v6 Put (tag 5)"
        "\005\001\000\000\000s\002\000\000\000\003\000\000\000old";
      with_record "retired v7 growth (tag 3)" "\003\001\000\000\000s\008\000\000\000";
      with_record "retired v7 batch read (tag 9)"
        "\009\001\000\000\000s\001\000\000\000\002\000\000\000";
      with_record "retired v7 cross-store write (tag 18)"
        "\018\001\000\000\000\001\000\000\000s\001\000\000\000\002\000\000\000\003\000\000\000old";
      with_record "v7 Create_store without a slot count" "\001\001\000\000\000t")

let test_ns_encoding () =
  Alcotest.(check string) "safe names pass through" "t-alice.prod-1"
    (Store.Tenant.encode_ns "alice.prod-1");
  let hexed = Store.Tenant.encode_ns "a/b:c" in
  Alcotest.(check bool) "unsafe names hex-escape" true
    (String.length hexed > 2 && String.sub hexed 0 2 = "x-");
  Alcotest.(check bool) "empty name hex-escapes" true
    (String.sub (Store.Tenant.encode_ns "") 0 2 = "x-");
  (* The two forms cannot collide: a safe name that looks like an escape
     still gets the t- prefix. *)
  Alcotest.(check string) "prefixes disjoint" "t-x-6162" (Store.Tenant.encode_ns "x-6162")

(* {2 Session registry: LRU eviction and rehydration} *)

let test_session_evict_rehydrate () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let reg =
        Service.Session.create
          ~config:
            { Service.Session.default_config with data_dir = Some data_dir; max_resident = 1 }
          ()
      in
      let serve_session ns reqs =
        let tenant = Service.Session.attach reg ns in
        List.iter
          (fun req ->
            Handler.replay tenant.Service.Session.handler req;
            Service.Session.journal reg tenant req;
            Service.Metrics.Reservoir.add tenant.Service.Session.latency 0.001)
          reqs;
        Service.Session.release reg tenant
      in
      serve_session "cold" workload_a;
      Alcotest.(check int) "one resident tenant" 1 (Service.Session.count reg);
      (* Attaching a second tenant pushes "cold" out... *)
      serve_session "hot" workload_b;
      Alcotest.(check bool) "cold tenant was evicted" true
        (Service.Session.find reg "cold" = None);
      Alcotest.(check (list string)) "only the newcomer is resident" [ "hot" ]
        (Service.Session.namespaces reg);
      (* ...and the next Hello rehydrates it, bit-identically. *)
      let back = Service.Session.attach reg "cold" in
      check_identical "rehydrated tenant" (reference workload_a)
        back.Service.Session.handler;
      Alcotest.(check bool) "eviction dropped its latency samples" true
        (Service.Metrics.Reservoir.percentiles back.Service.Session.latency = (0., 0., 0.));
      Service.Session.release reg back;
      (* A pinned tenant is never evicted, even over the cap. *)
      let pinned = Service.Session.attach reg "hot" in
      let other = Service.Session.attach reg "cold" in
      Alcotest.(check bool) "pinned tenants both resident" true
        (Service.Session.find reg "hot" <> None
        && Service.Session.find reg "cold" <> None);
      Service.Session.release reg pinned;
      Service.Session.release reg other;
      Service.Session.shutdown reg;
      Alcotest.(check int) "shutdown empties the registry" 0 (Service.Session.count reg))

(* {2 Crash recovery through the serving path} *)

(* Frames fed through [Conn], in the daemon's own order, to a tenant
   whose journal snapshots itself every 5 frames; then a crash: the
   tenant is reopened from disk with no shutdown snapshot.  Each
   auto-snapshot is taken inside a frame's journal append, so it must
   already hold that frame's response bytes. *)
let test_conn_crash_recovery () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let registry =
        Service.Session.create
          ~config:
            { Service.Session.default_config with data_dir = Some data_dir; snapshot_every = 5 }
          ()
      in
      let ctx =
        {
          Service.Conn.registry;
          metrics = Service.Metrics.create ();
          live_sessions = (fun () -> 1);
          log = ignore;
        }
      in
      let conn = Service.Conn.create ~id:1 ~peer:"test" ~now:0. Unix.stdin in
      let reqs = workload_a @ workload_b in
      let b = Buffer.create 1024 in
      Buffer.add_char b (Char.chr Wire.protocol_version);
      List.iter (Wire.write_request_sink (Wire.buffer_sink b)) (Wire.Hello "crash" :: reqs);
      let bytes = Buffer.to_bytes b in
      Service.Conn.on_bytes ctx conn bytes ~len:(Bytes.length bytes) ~now:0.;
      Alcotest.(check bool) "every frame served" false (Service.Conn.closing conn);
      let live = Option.get (Service.Session.find registry "crash") in
      check_identical "live tenant" (reference reqs) live.Service.Session.handler;
      let t, recovered = Store.Tenant.open_ ~data_dir ~snapshot_every:5 "crash" in
      check_identical "recovered across auto-snapshots" (reference reqs) recovered;
      Store.Tenant.close t;
      Option.iter Store.Tenant.close live.Service.Session.persist)

(* {2 Daemon: restart and eviction end-to-end} *)

let with_daemon ?data_dir ?(max_resident = 0) f =
  Service.Daemon.with_local
    ~config:{ Service.Daemon.default_config with data_dir; max_resident }
    (fun path _ -> f path)

let with_client ?namespace ?depth path f =
  let conn = Servsim.Remote.connect_unix ?namespace ?depth path in
  Fun.protect
    ~finally:(fun () ->
      ((try Servsim.Remote.close conn with _ -> ()) [@lint.allow "exception-hygiene"]))
    (fun () -> f conn)

let client_batch_a conn =
  ignore (Servsim.Remote.call conn (Wire.Create_store ("s", 16)));
  for i = 0 to 15 do
    ignore (Servsim.Remote.call conn (put "s" i (String.make 48 'p')))
  done;
  ignore (Servsim.Remote.call conn (get "s" 7))

let client_batch_b conn =
  for i = 0 to 15 do
    ignore (Servsim.Remote.call conn (put "s" i (String.make 32 'q')))
  done;
  (match Servsim.Remote.call conn (get "s" 3) with
  | Wire.Values [ v ] -> Alcotest.(check string) "value survived restart" (String.make 32 'q') v
  | _ -> Alcotest.fail "get after restart");
  let stats = Servsim.Remote.stats conn in
  (Servsim.Remote.server_digests conn, stats.Wire.frames)

let test_daemon_restart_bit_identical () =
  (* Reference: one daemon, no restart. *)
  (* Two connections, like the restarted run, so the Bye between the
     batches lands in both ledgers. *)
  let expected =
    with_daemon (fun path ->
        with_client ~namespace:"phoenix" path client_batch_a;
        with_client ~namespace:"phoenix" path client_batch_b)
  in
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let recovered =
        with_daemon ~data_dir (fun path ->
            with_client ~namespace:"phoenix" path client_batch_a);
        (* First daemon fully stopped (with_daemon joined it); a second
           one picks the tenant up from disk. *)
        with_daemon ~data_dir (fun path ->
            with_client ~namespace:"phoenix" path client_batch_b)
      in
      Alcotest.(check bool)
        "digests and session ledger survive a daemon restart" true (recovered = expected))

(* [Remote.connect_unix] with a receive timeout, so a daemon that stops
   answering mid-handshake fails the test instead of hanging it. *)
let connect_unix_within ~timeout ~namespace path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  Unix.connect fd (Unix.ADDR_UNIX path);
  match Servsim.Remote.connect_fd ~namespace fd with
  | conn -> conn
  | exception e ->
      Unix.close fd;
      raise e

(* A [Hello] for a tenant whose snapshot is damaged beyond torn-tail
   recovery is refused with an [Error] on that connection alone: other
   namespaces keep being served, and the daemon still drains on stop
   ([with_daemon] returns only once [run] has). *)
let test_daemon_refuses_corrupt_tenant () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      with_daemon ~data_dir (fun path ->
          with_client ~namespace:"damaged" path client_batch_a);
      let snap =
        Store.Tenant.snapshot_path ~dir:(Store.Tenant.tenant_dir ~data_dir "damaged")
      in
      (match Store.Fsio.read_file snap with
      | Some s -> Store.Fsio.write_file_atomic ~path:snap (String.sub s 0 (String.length s / 2))
      | None -> Alcotest.fail "snapshot missing");
      with_daemon ~data_dir (fun path ->
          Alcotest.(check bool) "Hello for the damaged tenant is refused" true
            (match connect_unix_within ~timeout:10. ~namespace:"damaged" path with
            | conn ->
                Servsim.Remote.close conn;
                false
            | exception Wire.Protocol_error _ -> true);
          with_client ~namespace:"healthy" path Servsim.Remote.ping))

let test_daemon_eviction_under_load () =
  (* Reference: unlimited residency. *)
  let digests_of ~max_resident data_dir =
    with_daemon ~data_dir ~max_resident (fun path ->
        (* Interleave three tenants so each reconnect forces the previous
           tenant out (cap 1) and rehydrates this one. *)
        for round = 1 to 3 do
          List.iter
            (fun ns ->
              with_client ~namespace:ns path (fun conn ->
                  if round = 1 then begin
                    ignore (Servsim.Remote.call conn (Wire.Create_store ("s", 4)));
                  end;
                  ignore
                    (Servsim.Remote.exchange conn ~puts:[ ("s", [ (round mod 4, ns) ]) ] ~gets:[]);
                  ignore (Servsim.Remote.call conn (get "s" (round mod 4)))))
            [ "ev-a"; "ev-b"; "ev-c" ]
        done;
        List.map
          (fun ns ->
            with_client ~namespace:ns path (fun conn ->
                (ns, Servsim.Remote.server_digests conn)))
          [ "ev-a"; "ev-b"; "ev-c" ])
  in
  let unlimited = with_tmp_dir "sfdd-ref" (digests_of ~max_resident:0) in
  let churned = with_tmp_dir "sfdd-churn" (digests_of ~max_resident:1) in
  List.iter2
    (fun (ns, d0) (_, d1) ->
      Alcotest.(check bool)
        (ns ^ " digests identical under eviction churn")
        true (d0 = d1))
    unlimited churned

(* {2 Dynamic sessions: persistence by update-history replay}

   A dynamic session is persisted as its update history (the successful
   [Begin_dynamic] plus every update served after it, rejected ones
   included) — snapshot and journal replay both re-dispatch it, so the
   rehydrated engine's ORAM state and trace digests are rebuilt
   bit-identically.  The probe is a served [Revalidate]: its [Fds_reply]
   carries the engine's FD statuses and trace digests, which is exactly
   the adversary-visible state that must not fork. *)

let enc_row ints =
  Dynserve.encode_row (Array.of_list (List.map (fun i -> Relation.Value.Int i) ints))

let dyn_begin =
  Wire.Begin_dynamic
    {
      seed = 7L;
      capacity = 64;
      max_lhs = 0;
      cols = 3;
      rows = List.map enc_row [ [ 1; 10; 100 ]; [ 1; 10; 200 ]; [ 2; 20; 100 ]; [ 3; 20; 200 ] ];
    }

let dyn_workload_1 =
  [
    dyn_begin;
    Wire.Insert_row (enc_row [ 2; 3; 1 ]);
    Wire.Insert_row (enc_row [ 3; 1; 1 ]);
    Wire.Insert_row (enc_row [ 1; 2 ]) (* rejected: arity; still journaled *);
    Wire.Delete_row 2;
  ]

let dyn_workload_2 = [ Wire.Insert_row (enc_row [ 9; 9; 9 ]); Wire.Revalidate ]

let dyn_probe st =
  match Handler.handle st Wire.Revalidate with
  | Wire.Fds_reply r ->
      let s = Handler.stats st in
      (r, (s.Wire.inserts, s.Wire.deletes, s.Wire.revalidates))
  | _ -> Alcotest.fail "probe: expected Fds_reply"

let test_tenant_dyn_recovery () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let ns = "dynr" in
      let t, st = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      serve t st dyn_workload_1;
      (* Crash mid-update-stream: journal-only recovery re-dispatches the
         history... *)
      let t2, st2 = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      Alcotest.(check bool) "journal-only recovery restores the engine" true
        (dyn_probe st2 = dyn_probe (reference dyn_workload_1));
      (* ...and the session is live: keep streaming, snapshot (which
         persists the full history), reopen from the snapshot alone. *)
      serve t2 st2 dyn_workload_2;
      Store.Tenant.snapshot t2 st2;
      let t3, st3 = Store.Tenant.open_ ~data_dir ~snapshot_every:0 ns in
      (* The probes above are served requests, so mirror them in the
         reference before comparing. *)
      let ref_st = reference dyn_workload_1 in
      ignore (dyn_probe ref_st);
      List.iter (Handler.replay ref_st) dyn_workload_2;
      Alcotest.(check bool) "snapshot recovery after more updates" true
        (dyn_probe st3 = dyn_probe ref_st);
      Store.Tenant.close t3;
      Store.Tenant.close t2;
      Store.Tenant.close t)

let test_session_dyn_evict_rehydrate () =
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let reg =
        Service.Session.create
          ~config:
            { Service.Session.default_config with
              data_dir = Some data_dir;
              max_resident = 1 }
          ()
      in
      let serve_session ns reqs =
        let tenant = Service.Session.attach reg ns in
        List.iter
          (fun req ->
            Handler.replay tenant.Service.Session.handler req;
            Service.Session.journal reg tenant req;
            Service.Metrics.Reservoir.add tenant.Service.Session.latency 0.001)
          reqs;
        Service.Session.release reg tenant
      in
      serve_session "dcold" dyn_workload_1;
      Alcotest.(check int) "dynamic session resident" 1 (Service.Session.dyn_resident reg);
      (* Evict the tenant mid-session (its ORAM structures are freed)... *)
      serve_session "dhot" workload_b;
      Alcotest.(check bool) "dyn tenant evicted" true
        (Service.Session.find reg "dcold" = None);
      Alcotest.(check int) "gauge follows the eviction" 0 (Service.Session.dyn_resident reg);
      (* ...and rehydration rebuilds the live engine bit-identically. *)
      let back = Service.Session.attach reg "dcold" in
      Alcotest.(check int) "gauge follows rehydration" 1 (Service.Session.dyn_resident reg);
      Alcotest.(check bool) "rehydrated engine bit-identical" true
        (dyn_probe back.Service.Session.handler = dyn_probe (reference dyn_workload_1));
      Service.Session.release reg back;
      Service.Session.shutdown reg)

(* Run on a [~depth:8] connection, so the insert burst before the
   restart is pipelined. *)
let dyn_client_a conn =
  let r0 =
    Servsim.Remote.begin_dynamic conn ~capacity:64 ~seed:7L ~cols:3
      (List.map enc_row [ [ 1; 10; 100 ]; [ 1; 10; 200 ]; [ 2; 20; 100 ]; [ 3; 20; 200 ] ])
  in
  Alcotest.(check bool) "initial FDs all valid" true
    (List.for_all (fun s -> s.Wire.fd_valid) r0.Wire.fds);
  Alcotest.(check (list int)) "pipelined inserts assign sequential ids" [ 4; 5 ]
    (Servsim.Remote.insert_rows conn [ enc_row [ 2; 3; 1 ]; enc_row [ 3; 1; 1 ] ]);
  Servsim.Remote.delete_row conn ~id:2

let dyn_client_b conn =
  Alcotest.(check (list int)) "ids continue after the delete" [ 6 ]
    (Servsim.Remote.insert_rows conn [ enc_row [ 9; 9; 9 ] ]);
  let r = Servsim.Remote.revalidate conn in
  let st = Servsim.Remote.stats conn in
  (r, st.Wire.inserts, st.Wire.deletes, st.Wire.revalidates)

let test_daemon_dyn_restart_bit_identical () =
  (* Reference: one daemon, no restart, same two-connection shape. *)
  let expected =
    with_daemon (fun path ->
        with_client ~namespace:"dphoenix" ~depth:8 path dyn_client_a;
        with_client ~namespace:"dphoenix" path dyn_client_b)
  in
  with_tmp_dir "sfdd-store" (fun data_dir ->
      let recovered =
        with_daemon ~data_dir (fun path ->
            with_client ~namespace:"dphoenix" ~depth:8 path dyn_client_a);
        (* Daemon killed mid-update-stream; a fresh one picks the session
           up from disk and the stream continues. *)
        with_daemon ~data_dir (fun path ->
            with_client ~namespace:"dphoenix" path dyn_client_b)
      in
      Alcotest.(check bool)
        "FD statuses, digests and verb counters survive a daemon restart" true
        (recovered = expected))

(* An LRU cap needs somewhere to evict to: the daemon refuses
   [max_resident] without a data dir before it binds a socket, and
   fdserved reports the flags as a usage error.  The binary is
   ../bin/fdserved.exe when run by [dune runtest]. *)
let fdserved_exe = Filename.concat (Filename.concat ".." "bin") "fdserved.exe"

let test_cap_needs_data_dir () =
  with_tmp_dir "sfdd-cap" (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      Alcotest.(check bool) "Daemon.create refuses the cap" true
        (match
           Service.Daemon.create
             { Service.Daemon.default_config with unix_path = Some sock; max_resident = 1 }
         with
        | exception Invalid_argument _ -> true
        | _ -> false);
      Alcotest.(check bool) "no socket bound" false (Sys.file_exists sock);
      if Sys.file_exists fdserved_exe then begin
        let err = Filename.concat dir "stderr" in
        (* [timeout] only bounds the run should the flags be accepted. *)
        let code =
          Sys.command
            (Filename.quote_command "timeout"
               [ "10"; fdserved_exe; "--unix"; sock; "--max-resident"; "1" ]
               ~stdout:Filename.null ~stderr:err)
        in
        let msg = In_channel.with_open_bin err In_channel.input_all in
        let has sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check int) "fdserved exits with a usage error" 124 code;
        Alcotest.(check bool) "names both flags" true (has "--max-resident needs --data-dir");
        Alcotest.(check bool) "prints the usage" true (has "Usage:");
        Alcotest.(check bool) "fdserved bound no socket" false (Sys.file_exists sock)
      end)

let suite =
  [
    Alcotest.test_case "crc32 known answers and streaming" `Quick test_crc32_kat;
    Alcotest.test_case "segment round-trip" `Quick test_segment_roundtrip;
    Alcotest.test_case "segment torn at every offset" `Quick test_segment_torn_at_every_offset;
    Alcotest.test_case "segment corrupt record" `Quick test_segment_crc_flip;
    Alcotest.test_case "tenant journal-only recovery" `Quick test_tenant_reopen_without_close;
    Alcotest.test_case "tenant snapshot rotation" `Quick test_tenant_snapshot_midway;
    Alcotest.test_case "tenant auto-snapshot" `Quick test_tenant_auto_snapshot;
    Alcotest.test_case "tenant journal truncated at every offset" `Slow
      test_tenant_truncated_at_every_offset;
    Alcotest.test_case "tenant journals past a torn tail" `Quick
      test_tenant_journal_past_torn_tail;
    Alcotest.test_case "tenant corrupt snapshot refused" `Quick
      test_tenant_corrupt_snapshot_refused;
    Alcotest.test_case "namespace directory encoding" `Quick test_ns_encoding;
    Alcotest.test_case "session evict and rehydrate" `Quick test_session_evict_rehydrate;
    Alcotest.test_case "serving-path crash recovery" `Quick test_conn_crash_recovery;
    Alcotest.test_case "daemon restart bit-identical" `Quick
      test_daemon_restart_bit_identical;
    Alcotest.test_case "max resident needs a data dir" `Quick test_cap_needs_data_dir;
    Alcotest.test_case "daemon refuses a corrupt tenant" `Quick
      test_daemon_refuses_corrupt_tenant;
    Alcotest.test_case "daemon eviction churn bit-identical" `Quick
      test_daemon_eviction_under_load;
    Alcotest.test_case "tenant dynamic-session recovery" `Quick test_tenant_dyn_recovery;
    Alcotest.test_case "session dynamic evict and rehydrate" `Quick
      test_session_dyn_evict_rehydrate;
    Alcotest.test_case "daemon dynamic restart bit-identical" `Quick
      test_daemon_dyn_restart_bit_identical;
  ]
