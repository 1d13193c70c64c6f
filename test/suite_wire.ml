(* Wire protocol v8: property tests for the codec (including the batch,
   session and dynamic-update frames), malformed-prefix hardening, the
   version handshake, and remote-vs-local equivalence of every
   [Block_store] entry point and of a PathORAM workload — same trace
   shape, same server digests, and a round-trip ledger that matches the
   actual number of wire frames. *)

open Relation

let with_remote = Suite_remote.with_remote

(* Codec tests leave half-written frames in [oc]'s buffer; closing the
   write end while the read end is still open (and SIGPIPE ignored below)
   keeps the implicit flush from killing the process. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let with_pipe f =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w and ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () -> f ic oc)

(* {2 Codec property tests} *)

let roundtrip_request req =
  with_pipe (fun ic oc ->
      Servsim.Wire.write_request oc req;
      Servsim.Wire.read_request ic = req)

let roundtrip_response resp =
  with_pipe (fun ic oc ->
      Servsim.Wire.write_response oc resp;
      Servsim.Wire.read_response ic = resp)

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun s n -> Servsim.Wire.Create_store (s, n))
          (string_size (0 -- 30)) (int_bound 100000);
        map (fun s -> Servsim.Wire.Drop_store s) (string_size (0 -- 30));
        (* Either side may be empty: puts-only, gets-only, mixed and
           empty frames all occur. *)
        map2
          (fun puts gets -> Servsim.Wire.Exchange { puts; gets })
          (list_size (0 -- 6)
             (pair
                (string_size (0 -- 20))
                (list_size (0 -- 10) (pair (int_bound 100000) (string_size (0 -- 50))))))
          (list_size (0 -- 6)
             (pair (string_size (0 -- 20)) (list_size (0 -- 40) (int_bound 100000))));
        map (fun ns -> Servsim.Wire.Hello ns) (string_size (0 -- 40));
        return Servsim.Wire.Ping;
        return Servsim.Wire.Stats;
        (* Dynamic verbs (v5): [Begin_dynamic] rows must all carry
           exactly [cols] cells, so generate the arity first. *)
        (int_range 1 6 >>= fun cols ->
         map3
           (fun seed caps rows ->
             let capacity, max_lhs = caps in
             Servsim.Wire.Begin_dynamic
               { seed = Int64.of_int seed; capacity; max_lhs; cols; rows })
           (int_bound 1000000)
           (pair (int_bound 4096) (int_bound 8))
           (list_size (0 -- 10) (list_repeat cols (string_size (0 -- 12)))));
        map
          (fun cells -> Servsim.Wire.Insert_row cells)
          (list_size (0 -- Servsim.Wire.max_row_cells) (string_size (0 -- 12)));
        map (fun id -> Servsim.Wire.Delete_row id) (int_bound 1000000);
        return Servsim.Wire.Revalidate;
        return Servsim.Wire.Digest;
        return Servsim.Wire.Total_bytes;
      ])

let stats_gen =
  QCheck.Gen.(
    map2
      (fun (((uptime, sessions, frames), (bytes_in, bytes_out), (p50, p95, p99)),
            (reads, writes, (wakeups, rounds)))
           ((inserts, deletes), (revalidates, dyn_sessions)) ->
        Servsim.Wire.Stats_reply
          {
            uptime_us = Int64.of_int uptime;
            sessions;
            frames;
            bytes_in;
            bytes_out;
            p50_us = p50;
            p95_us = p95;
            p99_us = p99;
            loop_reads = reads;
            loop_writes = writes;
            loop_wakeups = wakeups;
            loop_rounds = rounds;
            inserts;
            deletes;
            revalidates;
            dyn_sessions;
          })
      (pair
         (triple
            (triple (int_bound 1000000000) (int_bound 1000) (int_bound 1000000))
            (pair (int_bound 1000000) (int_bound 1000000))
            (triple (int_bound 100000) (int_bound 100000) (int_bound 100000)))
         (triple (int_bound 10000000) (int_bound 10000000)
            (pair (int_bound 10000000) (int_bound 10000000))))
      (pair
         (pair (int_bound 1000000) (int_bound 1000000))
         (pair (int_bound 1000000) (int_bound 1000))))

let fds_reply_gen =
  QCheck.Gen.(
    map3
      (fun fds (full, shape) events ->
        Servsim.Wire.Fds_reply
          {
            fds =
              List.map
                (fun ((lhs, rhs), valid) ->
                  { Servsim.Wire.fd_lhs = Int64.of_int lhs; fd_rhs = rhs; fd_valid = valid })
                fds;
            dyn_full = Int64.of_int full;
            dyn_shape = Int64.of_int shape;
            dyn_events = events;
          })
      (list_size (0 -- 12) (pair (pair (int_bound 0xFFFF) (int_bound 61)) bool))
      (pair int int) (int_bound 1000000))

let response_gen =
  QCheck.Gen.(
    oneof
      [
        return Servsim.Wire.Ok;
        map (fun vs -> Servsim.Wire.Values vs) (list_size (0 -- 40) (string_size (0 -- 60)));
        map3
          (fun a b c ->
            Servsim.Wire.Digests { full = Int64.of_int a; shape = Int64.of_int b; count = c })
          int int (int_bound 1000000);
        map (fun n -> Servsim.Wire.Bytes_total n) (int_bound 1000000);
        return Servsim.Wire.Pong;
        stats_gen;
        map (fun id -> Servsim.Wire.Row_id id) (int_bound 1000000);
        fds_reply_gen;
        map (fun m -> Servsim.Wire.Error m) (string_size (0 -- 50));
      ])

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"wire v8 request roundtrip" ~count:300 (QCheck.make request_gen)
    roundtrip_request

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"wire v8 response roundtrip" ~count:300 (QCheck.make response_gen)
    roundtrip_response

(* {2 Malformed / hostile prefixes} *)

let raises_protocol_error f =
  match f () with
  | _ -> false
  | exception Servsim.Wire.Protocol_error _ -> true

let put_u32_raw oc v =
  for k = 0 to 3 do
    output_char oc (Char.chr ((v lsr (k * 8)) land 0xff))
  done

let test_huge_string_prefix () =
  (* A Create_store whose length prefix claims more than the frame cap
     must fail with Protocol_error, not feed really_input_string a
     near-4GiB allocation. *)
  with_pipe (fun ic oc ->
      output_char oc '\001';
      put_u32_raw oc 0xFFFFFFFF;
      flush oc;
      Alcotest.(check bool) "oversized string prefix rejected" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_huge_list_prefix () =
  with_pipe (fun ic oc ->
      output_char oc '\019';
      (* one put group, store name "s" *)
      put_u32_raw oc 1;
      put_u32_raw oc 1;
      output_char oc 's';
      (* batch count beyond the cap *)
      put_u32_raw oc (Servsim.Wire.max_list_len + 1);
      flush oc;
      Alcotest.(check bool) "oversized batch count rejected" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_huge_create_store_claim () =
  (* [Create_store] makes the server allocate every slot it claims, so
     its count is capped like a batch count: a 10-byte frame must not
     buy a multi-gigabyte array.  The writer refuses to send one... *)
  let claim = Servsim.Wire.max_list_len + 1 in
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "oversized Create_store rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (Servsim.Wire.Create_store ("s", claim)))));
  (* ...and the reader rejects one from a hostile peer. *)
  with_pipe (fun ic oc ->
      output_char oc '\001';
      put_u32_raw oc 1;
      output_char oc 's';
      put_u32_raw oc claim;
      flush oc;
      Alcotest.(check bool) "oversized Create_store rejected on read" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_put_u32_range () =
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "negative int rejected" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc
               (Servsim.Wire.Exchange { puts = []; gets = [ ("s", [ -1 ]) ] })));
      Alcotest.(check bool) "int above 32 bits rejected" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc
               (Servsim.Wire.Exchange { puts = []; gets = [ ("s", [ 1 lsl 40 ]) ] }))))

let test_bad_tag () =
  with_pipe (fun ic oc ->
      output_char oc '\042';
      flush oc;
      Alcotest.(check bool) "bad request tag rejected" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_oversized_namespace () =
  let long = String.make (Servsim.Wire.max_namespace_len + 1) 'n' in
  (* Separate pipes: the rejected write leaves a half-written frame (the
     tag byte) buffered in [oc], which would corrupt a later read. *)
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "oversized namespace rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (Servsim.Wire.Hello long))));
  (* And a hostile peer sending one on the wire is rejected on read. *)
  with_pipe (fun ic oc ->
      output_char oc '\011';
      put_u32_raw oc (String.length long);
      output_string oc long;
      flush oc;
      Alcotest.(check bool) "oversized namespace rejected on read" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_oversized_row () =
  (* Writer side: a row claiming more cells than the cap never leaves
     the client... *)
  let big = List.init (Servsim.Wire.max_row_cells + 1) (fun _ -> "c") in
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "oversized Insert_row rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (Servsim.Wire.Insert_row big))));
  (* ...and a hostile peer claiming one on the wire is rejected before
     any cell is read. *)
  with_pipe (fun ic oc ->
      output_char oc '\015';
      put_u32_raw oc (Servsim.Wire.max_row_cells + 1);
      flush oc;
      Alcotest.(check bool) "oversized row count rejected on read" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

let test_begin_dynamic_arity_mismatch () =
  let begin_dyn rows =
    Servsim.Wire.Begin_dynamic { seed = 7L; capacity = 0; max_lhs = 0; cols = 2; rows }
  in
  (* Writer side: a row that disagrees with the declared arity. *)
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "arity mismatch rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc (begin_dyn [ [ "a"; "b" ]; [ "only" ] ]))));
  (* Declared arity outside 1..max_row_cells. *)
  with_pipe (fun _ic oc ->
      Alcotest.(check bool) "zero arity rejected on write" true
        (raises_protocol_error (fun () ->
             Servsim.Wire.write_request oc
               (Servsim.Wire.Begin_dynamic
                  { seed = 7L; capacity = 0; max_lhs = 0; cols = 0; rows = [] }))));
  (* Reader side: hand-craft a frame whose second row is one cell short. *)
  with_pipe (fun ic oc ->
      output_char oc '\014';
      for _ = 1 to 8 do output_char oc '\000' done; (* seed *)
      put_u32_raw oc 0; (* capacity *)
      put_u32_raw oc 0; (* max_lhs *)
      put_u32_raw oc 2; (* cols *)
      put_u32_raw oc 2; (* row count *)
      (* row 0: 2 cells *)
      put_u32_raw oc 2;
      put_u32_raw oc 1; output_char oc 'a';
      put_u32_raw oc 1; output_char oc 'b';
      (* row 1: claims 1 cell *)
      put_u32_raw oc 1;
      put_u32_raw oc 1; output_char oc 'c';
      flush oc;
      Alcotest.(check bool) "arity mismatch rejected on read" true
        (raises_protocol_error (fun () -> Servsim.Wire.read_request ic)))

(* {2 Version handshake} *)

let test_hello_roundtrip () =
  with_pipe (fun ic oc ->
      Servsim.Wire.write_hello oc;
      Alcotest.(check int) "hello carries current version" Servsim.Wire.protocol_version
        (Servsim.Wire.read_hello ic))

let test_client_rejects_version_mismatch () =
  (* Fake server endpoint: pre-buffer a wrong version byte in the peer's
     direction, then connect — the handshake must fail loudly. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let oc_b = Unix.out_channel_of_descr b in
  output_char oc_b '\001';
  flush oc_b;
  Alcotest.(check bool) "mismatched server version rejected" true
    (raises_protocol_error (fun () -> Servsim.Remote.connect_fd a));
  close_out_noerr oc_b;
  (try Unix.close a with Unix.Unix_error _ -> ())

(* {2 Batch frames end-to-end} *)

let test_multi_roundtrip_server () =
  with_remote (fun conn ->
      ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 8)));
      Alcotest.(check (list string)) "puts-only frame answers no values" []
        (Servsim.Remote.exchange conn
           ~puts:[ ("s", [ (0, "a"); (3, "bb"); (7, "ccc") ]) ]
           ~gets:[]);
      Alcotest.(check (list string)) "gets return in index order" [ "ccc"; "a"; "bb"; "" ]
        (Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ 7; 0; 3; 5 ]) ]);
      (* All-or-nothing: one bad index fails the whole batch... *)
      Alcotest.(check bool) "out-of-bounds put rejected" true
        (raises_protocol_error (fun () ->
             Servsim.Remote.exchange conn ~puts:[ ("s", [ (1, "x"); (99, "y") ]) ] ~gets:[]));
      (* ...and leaves the valid slots untouched. *)
      Alcotest.(check (list string)) "no partial application" [ "" ]
        (Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ 1 ]) ]);
      match Servsim.Remote.call conn Servsim.Wire.Total_bytes with
      | Servsim.Wire.Bytes_total n -> Alcotest.(check int) "server bytes" 6 n
      | _ -> Alcotest.fail "total")

(* {2 Remote vs local equivalence + honest round-trip ledger} *)

let oram_workload server =
  let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
  let rng = Crypto.Rng.create 11 in
  let o =
    Oram.Path_oram.setup ~name:"o" { capacity = 32; key_len = 8; payload_len = 8 } server cipher
      (Crypto.Rng.int rng)
  in
  for i = 0 to 15 do
    Oram.Path_oram.write o ~key:(Codec.encode_int i) (Codec.encode_int (i * 7))
  done;
  for i = 0 to 15 do
    ignore (Oram.Path_oram.read o ~key:(Codec.encode_int i))
  done;
  o

let test_remote_local_equivalence () =
  let digest_of server =
    let trace = Servsim.Server.trace server in
    ( Servsim.Trace.full_digest trace,
      Servsim.Trace.shape_digest trace,
      Servsim.Trace.count trace,
      Servsim.Cost.snapshot (Servsim.Server.cost server) )
  in
  (* Local run. *)
  let local_server = Servsim.Server.create () in
  ignore (oram_workload local_server);
  let lf, ls, lc, lcost = digest_of local_server in
  (* Remote run, same seeds. *)
  with_remote (fun conn ->
      let server = Servsim.Server.create ~remote:conn () in
      ignore (oram_workload server);
      let rf, rs, rc, rcost = digest_of server in
      Alcotest.(check int64) "identical full trace digest" lf rf;
      Alcotest.(check int64) "identical trace shape" ls rs;
      Alcotest.(check int) "identical trace count" lc rc;
      Alcotest.(check int) "identical round-trip ledger" lcost.Servsim.Cost.round_trips
        rcost.Servsim.Cost.round_trips;
      Alcotest.(check int) "no client-memory underflows" 0
        rcost.Servsim.Cost.client_underflows;
      (* The adversary's own recording agrees with the client's mirror. *)
      Alcotest.(check bool) "server digests match client mirror" true
        (Servsim.Remote.digests conn ~full:rf ~shape:rs ~count:rc))

(* [Frame]'s combinators: one frame carries every read's groups, each
   read finishes on its own blocks, and finishes run in the order the
   reads were given (they complete ORAM accesses, which draw leaves and
   IVs).  A write-behind batch rides in the next read's frame. *)
let test_frame_finish_order () =
  let module F = Servsim.Frame in
  let server = Servsim.Server.create () in
  let s = Servsim.Server.create_store server "s" ~slots:6 in
  Servsim.Block_store.write_many s (List.init 6 (fun i -> (i, string_of_int i)));
  let trips () = (Servsim.Cost.snapshot (Servsim.Server.cost server)).Servsim.Cost.round_trips in
  let log = ref [] in
  let logged name slots =
    {
      F.gets = (if slots = [] then [] else [ (s, slots) ]);
      finish =
        (fun blocks ->
          log := name :: !log;
          String.concat "" blocks);
    }
  in
  let frame name read =
    log := [];
    let t0 = trips () in
    let v = F.get read in
    Alcotest.(check int) (name ^ ": one frame") 1 (trips () - t0);
    (v, List.rev !log)
  in
  Alcotest.(check (pair (pair string string) (list string)))
    "both" (("01", "5"), [ "first"; "second" ])
    (frame "both" (F.both (logged "first" [ 0; 1 ]) (logged "second" [ 5 ])));
  Alcotest.(check (pair (list string) (list string)))
    "all" ([ "3"; ""; "42" ], [ "a"; "b"; "c" ])
    (frame "all" (F.all [ logged "a" [ 3 ]; logged "b" []; logged "c" [ 4; 2 ] ]));
  Alcotest.(check (pair (pair (list string) string) (list string)))
    "nested" (([ "1"; "2" ], "0"), [ "x"; "y"; "z" ])
    (frame "nested" (F.both (F.all [ logged "x" [ 1 ]; logged "y" [ 2 ] ]) (logged "z" [ 0 ])));
  let t0 = trips () in
  let v =
    F.with_batch (fun batch ->
        F.put batch [ (s, [ (0, "p") ]) ];
        let v = F.read batch (logged "r" [ 0 ]) in
        F.put batch [ (s, [ (1, "q") ]) ];
        v)
  in
  Alcotest.(check string) "a held put lands before the read" "p" v;
  Alcotest.(check int) "read frame and puts-only flush" 2 (trips () - t0);
  Alcotest.(check string) "the last batch is flushed" "q" (Servsim.Block_store.read s 1)

(* Every [Block_store] entry point, driven identically against a local
   and a remote server: both run through the one core, so digests,
   ledgers, contents and byte totals must agree, and the server's own
   recording must match the client's mirror. *)
let block_store_workload server =
  let module B = Servsim.Block_store in
  let a = Servsim.Server.create_store server "a" ~slots:8
  and b = Servsim.Server.create_store server "b" ~slots:4 in
  let trace = Servsim.Server.trace server in
  let trips () = (Servsim.Cost.snapshot (Servsim.Server.cost server)).Servsim.Cost.round_trips in
  B.write_many a [ (0, "zero") ];
  B.write_many a [ (1, "one"); (5, "five"); (7, "seven") ];
  B.write_many a [];
  Alcotest.(check (list string)) "puts-only exchange reads nothing" []
    (B.exchange ~puts:[ (a, [ (2, "two"); (1, "uno") ]); (b, []); (b, [ (3, "b3"); (0, "b00") ]) ]
       ~gets:[]);
  let reads = (B.read a 5 :: B.read_many a [ 7; 0; 1; 2; 3 ]) @ B.read_many b [ 3; 0 ] in
  Alcotest.(check (list string)) "reads" [ "five"; "seven"; "zero"; "uno"; "two"; ""; "b3"; "b00" ]
    reads;
  Alcotest.(check (list string)) "empty read" [] (B.read_many a []);
  (* A mixed frame: put slot 6 and get it back in the same exchange.  It
     returns the new block, traces the write before the read, and costs
     one trip. *)
  let t0 = trips () in
  Alcotest.(check (list string)) "mixed frame returns the new block" [ "six"; "b3" ]
    (B.exchange ~puts:[ (a, [ (6, "six") ]) ] ~gets:[ (a, [ 6 ]); (b, [ 3 ]) ]);
  Alcotest.(check int) "mixed frame is one trip" 1 (trips () - t0);
  Alcotest.(check bool) "write traced before the reads" true
    (match List.rev (Servsim.Trace.events trace) with
    | r2 :: r1 :: w :: _ ->
        w = { Servsim.Trace.store = "a"; op = Servsim.Trace.Write; addr = 6; len = 3 }
        && r1 = { Servsim.Trace.store = "a"; op = Servsim.Trace.Read; addr = 6; len = 3 }
        && r2 = { Servsim.Trace.store = "b"; op = Servsim.Trace.Read; addr = 3; len = 2 }
    | _ -> false);
  (* A frame with one out-of-bounds index, in its last get group, is
     refused whole before anything is sent. *)
  let before = Servsim.Cost.snapshot (Servsim.Server.cost server) in
  let count = Servsim.Trace.count trace in
  Alcotest.(check bool) "out-of-bounds frame refused" true
    (match B.exchange ~puts:[ (a, [ (4, "x") ]) ] ~gets:[ (a, [ 0 ]); (b, [ 9 ]) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "refused frame leaves the ledger" true
    (Servsim.Cost.snapshot (Servsim.Server.cost server) = before);
  Alcotest.(check int) "refused frame leaves the trace" count (Servsim.Trace.count trace);
  Alcotest.(check (list string)) "refused frame leaves the slots" [ ""; "b00" ]
    [ B.read a 4; B.read b 0 ];
  ( Servsim.Trace.full_digest trace,
    Servsim.Trace.shape_digest trace,
    Servsim.Trace.count trace,
    Servsim.Cost.snapshot (Servsim.Server.cost server),
    (B.read_many a (List.init 8 Fun.id), B.read_many b (List.init 4 Fun.id)),
    Servsim.Server.total_bytes server )

let test_block_store_local_remote () =
  let local = block_store_workload (Servsim.Server.create ~keep_events:true ()) in
  with_remote (fun conn ->
      let full, shape, count, cost, contents, bytes =
        block_store_workload (Servsim.Server.create ~keep_events:true ~remote:conn ())
      in
      let lf, ls, lc, lcost, lcontents, lbytes = local in
      Alcotest.(check int64) "full digest" lf full;
      Alcotest.(check int64) "shape digest" ls shape;
      Alcotest.(check int) "trace count" lc count;
      Alcotest.(check bool) "ledger" true (lcost = cost);
      Alcotest.(check bool) "contents" true (lcontents = contents);
      Alcotest.(check int) "total bytes" lbytes bytes;
      (match Servsim.Remote.call conn Servsim.Wire.Total_bytes with
      | Servsim.Wire.Bytes_total n -> Alcotest.(check int) "server bytes" bytes n
      | _ -> Alcotest.fail "total");
      Alcotest.(check bool) "server digests match client mirror" true
        (Servsim.Remote.digests conn ~full ~shape ~count);
      (* The refused frame, built by hand, reaches the daemon: it answers
         [Error], and neither a block nor the server's digests move. *)
      Alcotest.(check bool) "daemon refuses the frame" true
        (match
           Servsim.Remote.call conn
             (Servsim.Wire.Exchange
                { puts = [ ("a", [ (4, "x") ]) ]; gets = [ ("a", [ 0 ]); ("b", [ 9 ]) ] })
         with
        | _ -> false
        | exception Servsim.Wire.Protocol_error _ -> true);
      Alcotest.(check bool) "server digests unmoved" true
        (Servsim.Remote.digests conn ~full ~shape ~count);
      Alcotest.(check (list string)) "no block changed" [ "" ]
        (Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("a", [ 4 ]) ]))

let test_frames_match_ledger () =
  with_remote (fun conn ->
      let server = Servsim.Server.create ~remote:conn () in
      let cipher = Crypto.Cell_cipher.create (String.make 16 'K') in
      let rng = Crypto.Rng.create 3 in
      let trips () =
        (Servsim.Cost.snapshot (Servsim.Server.cost server)).Servsim.Cost.round_trips
      in
      let f0 = Servsim.Remote.frames conn and t0 = trips () in
      let o =
        Oram.Path_oram.setup ~name:"o" { capacity = 16; key_len = 8; payload_len = 8 } server
          cipher (Crypto.Rng.int rng)
      in
      let f1 = Servsim.Remote.frames conn and t1 = trips () in
      (* Setup = Create_store + one Exchange putting every slot. *)
      Alcotest.(check int) "setup wire frames" 2 (f1 - f0);
      Alcotest.(check int) "setup ledger matches frames" (f1 - f0) (t1 - t0);
      Oram.Path_oram.write o ~key:(Codec.encode_int 1) (Codec.encode_int 42);
      let f2 = Servsim.Remote.frames conn and t2 = trips () in
      (* One logical access = one gets-only and one puts-only Exchange,
         nothing else. *)
      Alcotest.(check int) "access is exactly 2 wire frames" 2 (f2 - f1);
      Alcotest.(check int) "access ledger matches frames" (f2 - f1) (t2 - t1);
      ignore (Oram.Path_oram.read o ~key:(Codec.encode_int 1));
      let f3 = Servsim.Remote.frames conn and t3 = trips () in
      Alcotest.(check int) "read access is exactly 2 wire frames" 2 (f3 - f2);
      Alcotest.(check int) "read ledger matches frames" (f3 - f2) (t3 - t2))

(* {2 Cost underflow counter} *)

(* Pinned FNV-1a digest vectors, computed independently (64-bit FNV-1a
   over the documented event serialisation: store bytes, then op tag,
   addr, len as 8 little-endian bytes each; addr excluded from the shape).
   Guards the digest encoding itself: the recorder's fold must stay
   bit-compatible with plain 64-bit FNV-1a, or historical cross-run
   comparisons silently break. *)
let test_trace_digest_pinned () =
  let t = Servsim.Trace.create () in
  let ev store op addr len = Servsim.Trace.record_name t store op ~addr ~len in
  ev "db-1" Servsim.Trace.Read 0 48;
  ev "db-1" Servsim.Trace.Write 3 48;
  ev "sort-2" Servsim.Trace.Read 7 33;
  Servsim.Trace.mark t "phase";
  ev "sort-2" Servsim.Trace.Write 123456789 64;
  Alcotest.(check int64) "full" 0xca7865772a5e97cdL (Servsim.Trace.full_digest t);
  Alcotest.(check int64) "shape" 0xfe3271136782973dL (Servsim.Trace.shape_digest t);
  Alcotest.(check int) "count" 4 (Servsim.Trace.count t)

(* {2 Trace fold against the reference} *)

type trace_step =
  | Record of string * Servsim.Trace.op * int * int
  | Mark of string
  | Reload  (** [save] the recorder, [load] it into a fresh one, go on there *)

let trace_int_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ 0; 1; 255; 256; 65535; 65536; (1 lsl 32) - 1; 1 lsl 32; max_int; min_int; -1; -256 ];
        int;
        small_nat;
        int_bound 0xFFFFFF;
      ])

let trace_step_gen =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun (store, op) (addr, len) -> Record (store, op, addr, len))
            (pair (string_size (0 -- 64)) (oneofl [ Servsim.Trace.Read; Servsim.Trace.Write ]))
            (pair trace_int_gen trace_int_gen) );
        (1, map (fun l -> Mark l) (string_size (0 -- 64)));
        (1, return Reload);
      ])

let print_trace_step = function
  | Record (s, op, addr, len) ->
      Printf.sprintf "Record (%S, %s, %d, %d)" s
        (match op with Servsim.Trace.Read -> "Read" | Servsim.Trace.Write -> "Write")
        addr len
  | Mark l -> Printf.sprintf "Mark %S" l
  | Reload -> "Reload"

(* Every digest and count agrees with the byte-at-a-time fold after every
   step, across save/load boundaries. *)
let qcheck_trace_fold_reference =
  QCheck.Test.make ~name:"trace fold matches reference" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list print_trace_step)
       QCheck.Gen.(list_size (0 -- 40) trace_step_gen))
    (fun steps ->
      let agree t r =
        Servsim.Trace.full_digest t = Trace_reference.full_digest r
        && Servsim.Trace.shape_digest t = Trace_reference.shape_digest r
        && Servsim.Trace.count t = Trace_reference.count r
      in
      let r = Trace_reference.create () in
      let rec go t = function
        | [] -> true
        | step :: rest ->
            let t =
              match step with
              | Record (store, op, addr, len) ->
                  Servsim.Trace.record_name t store op ~addr ~len;
                  Trace_reference.record r store op ~addr ~len;
                  t
              | Mark l ->
                  Servsim.Trace.mark t l;
                  Trace_reference.mark r l;
                  t
              | Reload ->
                  let t' = Servsim.Trace.create () in
                  Servsim.Trace.load t' (Servsim.Trace.save t);
                  t'
            in
            agree t r && go t rest
      in
      go (Servsim.Trace.create ()) steps)

(* The recorder is on the path of every block the server sees, twice
   under the daemon: 10k events allocate exactly what an empty loop
   does.  A boxed [Int64] helper in the fold would show here as several
   words per event. *)
let test_trace_record_no_alloc () =
  let t = Servsim.Trace.create () in
  let nm = "or-oram-tree-3" in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let loop body () =
    for i = 1 to 10_000 do
      body i
    done
  in
  let record i =
    Servsim.Trace.record_name t nm
      (if i land 1 = 0 then Servsim.Trace.Read else Servsim.Trace.Write)
      ~addr:(i * 7919) ~len:(48 + (i land 0xffff))
  in
  let mark _ = Servsim.Trace.mark t "phase" in
  record 0;
  mark 0;
  let empty = words (loop ignore) in
  Alcotest.(check (float 0.)) "record_name: 0 words per event" empty (words (loop record));
  Alcotest.(check (float 0.)) "mark: 0 words per label" empty (words (loop mark));
  Alcotest.(check int) "every event counted" 10_001 (Servsim.Trace.count t)

(* {2 Golden frames}

   One frame of every request and response constructor, pinned byte for
   byte.  Counts, indices and lengths carry values whose four bytes all
   differ and 64-bit fields set their top bit, so a byte-order or width
   slip in any codec primitive shows.  Each frame is also checked to
   come out the same through a channel, to be sized exactly by
   [request_size]/[response_size], and to decode back through every
   source. *)

let golden_requests =
  let open Servsim.Wire in
  [
    ("Hello", Hello "ns-\xff", "0b 04000000 6e732dff");
    ("Create_store", Create_store ("tree-0", 0xABCDEF), "01 06000000 747265652d30 efcdab00");
    ("Drop_store", Drop_store "s", "02 01000000 73");
    ( "Exchange",
      Exchange
        {
          puts = [ ("a", [ (0xDEADBEEF, "xyz"); (1, "") ]); ("bb", []) ];
          gets = [ ("a", [ 0; 0x01020304 ]) ];
        },
      "13 02000000 01000000 61 02000000 efbeadde 03000000 78797a 01000000 00000000 \
       02000000 6262 00000000 01000000 01000000 61 02000000 00000000 04030201" );
    ("Digest", Digest, "06");
    ("Total_bytes", Total_bytes, "07");
    ("Ping", Ping, "0c");
    ("Stats", Stats, "0d");
    ( "Begin_dynamic",
      Begin_dynamic
        {
          seed = 0x8000000000000001L;
          capacity = 4096;
          max_lhs = 3;
          cols = 2;
          rows = [ [ "a"; "bc" ]; [ ""; "d" ] ];
        },
      "0e 0100000000000080 00100000 03000000 02000000 02000000 02000000 01000000 61 \
       02000000 6263 02000000 00000000 01000000 64" );
    ("Insert_row", Insert_row [ "x"; "yz" ], "0f 02000000 01000000 78 02000000 797a");
    ("Delete_row", Delete_row 0xFFFFFFFE, "10 feffffff");
    ("Revalidate", Revalidate, "11");
    ("Bye", Bye, "08");
  ]

let golden_responses =
  let open Servsim.Wire in
  [
    ("Ok", Ok, "64");
    ("Values", Values [ "a"; ""; "\000\255" ], "69 03000000 01000000 61 00000000 02000000 00ff");
    ( "Digests",
      Digests { full = -2L; shape = 0x0123456789abcdefL; count = 0x7F010203 },
      "66 feffffffffffffff efcdab8967452301 0302017f" );
    ("Bytes_total", Bytes_total 123456, "67 40e20100");
    ("Pong", Pong, "6a");
    ( "Stats_reply",
      Stats_reply
        {
          uptime_us = 0x8877665544332211L;
          sessions = 0x04030201;
          frames = 0x0102030405;
          bytes_in = 1 lsl 40;
          bytes_out = 7;
          p50_us = 11;
          p95_us = 0x100;
          p99_us = 0x10000;
          loop_reads = 0x0A0B0C0D0E;
          loop_writes = 1;
          loop_wakeups = 2;
          loop_rounds = 3;
          inserts = 4;
          deletes = 5;
          revalidates = 6;
          dyn_sessions = 0xFFFFFFFF;
        },
      "6b 1122334455667788 01020304 0504030201000000 0000000000010000 0700000000000000 \
       0b000000 00010000 00000100 0e0d0c0b0a000000 0100000000000000 0200000000000000 \
       0300000000000000 0400000000000000 0500000000000000 0600000000000000 ffffffff" );
    ("Row_id", Row_id 0x00C0FFEE, "6c eeffc000");
    ( "Fds_reply",
      Fds_reply
        {
          fds =
            [
              { fd_lhs = 0x8000000000000003L; fd_rhs = 61; fd_valid = true };
              { fd_lhs = 5L; fd_rhs = 0x01020304; fd_valid = false };
            ];
          dyn_full = 0x1122334455667788L;
          dyn_shape = -1L;
          dyn_events = 1313824;
        },
      "6d 02000000 0300000000000080 3d000000 01 0500000000000000 04030201 00 \
       8877665544332211 ffffffffffffffff 200c1400" );
    ("Error", Error "boom", "68 04000000 626f6f6d");
  ]

let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let golden_case ~label ~pinned ~write_sink ~size ~write_channel ~read_src ~read_channel v =
  let buf = Buffer.create 64 in
  write_sink (Servsim.Wire.buffer_sink buf) v;
  let frame = Buffer.contents buf in
  let pinned = String.concat "" (String.split_on_char ' ' pinned) in
  Alcotest.(check string) (label ^ " bytes") pinned (hex frame);
  Alcotest.(check int) (label ^ " size") (String.length frame) (size v);
  with_pipe (fun ic oc ->
      write_channel oc v;
      Alcotest.(check string) (label ^ " channel bytes") frame
        (really_input_string ic (String.length frame)));
  let pos = ref 0 in
  Alcotest.(check bool) (label ^ " string_source decode") true
    (read_src (Servsim.Wire.string_source frame pos) = v && !pos = String.length frame);
  let b = Bytes.of_string ("junk" ^ frame) and pos = ref 4 in
  Alcotest.(check bool) (label ^ " bytes_source decode") true
    (read_src (Servsim.Wire.bytes_source b pos ~limit:(Bytes.length b)) = v
    && !pos = Bytes.length b);
  with_pipe (fun ic oc ->
      output_string oc frame;
      flush oc;
      Alcotest.(check bool) (label ^ " channel decode") true (read_channel ic = v))

let test_golden_frames () =
  List.iter
    (fun (label, v, pinned) ->
      golden_case ~label ~pinned ~write_sink:Servsim.Wire.write_request_sink
        ~size:Servsim.Wire.request_size ~write_channel:Servsim.Wire.write_request
        ~read_src:Servsim.Wire.read_request_src ~read_channel:Servsim.Wire.read_request v)
    golden_requests;
  List.iter
    (fun (label, v, pinned) ->
      golden_case ~label ~pinned ~write_sink:Servsim.Wire.write_response_sink
        ~size:Servsim.Wire.response_size ~write_channel:Servsim.Wire.write_response
        ~read_src:Servsim.Wire.read_response_src ~read_channel:Servsim.Wire.read_response v)
    golden_responses

let test_cost_underflow_counter () =
  let c = Servsim.Cost.create () in
  Servsim.Cost.client_alloc c 10;
  Servsim.Cost.client_free c 4;
  Alcotest.(check int) "no underflow on balanced free" 0
    (Servsim.Cost.snapshot c).Servsim.Cost.client_underflows;
  Servsim.Cost.client_free c 10;
  let s = Servsim.Cost.snapshot c in
  Alcotest.(check int) "over-free detected" 1 s.Servsim.Cost.client_underflows;
  Alcotest.(check int) "ledger still clamped at zero" 0 s.Servsim.Cost.client_current_bytes

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    Alcotest.test_case "huge string prefix" `Quick test_huge_string_prefix;
    Alcotest.test_case "huge list prefix" `Quick test_huge_list_prefix;
    Alcotest.test_case "huge Create_store claim" `Quick test_huge_create_store_claim;
    Alcotest.test_case "put_u32 range check" `Quick test_put_u32_range;
    Alcotest.test_case "bad tag" `Quick test_bad_tag;
    Alcotest.test_case "oversized namespace" `Quick test_oversized_namespace;
    Alcotest.test_case "oversized dynamic row" `Quick test_oversized_row;
    Alcotest.test_case "Begin_dynamic arity mismatch" `Quick test_begin_dynamic_arity_mismatch;
    Alcotest.test_case "hello roundtrip" `Quick test_hello_roundtrip;
    Alcotest.test_case "client rejects version mismatch" `Quick
      test_client_rejects_version_mismatch;
    Alcotest.test_case "multi get/put end-to-end" `Quick test_multi_roundtrip_server;
    Alcotest.test_case "remote-local equivalence" `Quick test_remote_local_equivalence;
    Alcotest.test_case "block store local-remote equivalence" `Quick
      test_block_store_local_remote;
    Alcotest.test_case "frames match ledger" `Quick test_frames_match_ledger;
    Alcotest.test_case "frame reads finish in order" `Quick test_frame_finish_order;
    Alcotest.test_case "cost underflow counter" `Quick test_cost_underflow_counter;
    Alcotest.test_case "trace digests pinned" `Quick test_trace_digest_pinned;
    QCheck_alcotest.to_alcotest qcheck_trace_fold_reference;
    Alcotest.test_case "trace record allocates nothing" `Quick test_trace_record_no_alloc;
    Alcotest.test_case "golden frames" `Quick test_golden_frames;
  ]
