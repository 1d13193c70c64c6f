(* The multi-tenant daemon: an in-process [Service.Daemon] on a Unix
   socket (served from its own domain), exercised by real client
   connections.  Checks per-tenant isolation — concurrent discover runs
   produce server-side trace digests bit-identical to a single-client
   run — plus the frames == per-session-ledger invariant, fault
   isolation (mid-frame disconnects, malformed frames, a v2 client),
   the connection cap, the idle timeout, and graceful drain. *)

let with_daemon ?(max_conns = 64) ?(idle_timeout = 0.) f =
  Service.Daemon.with_local
    ~config:{ Service.Daemon.default_config with max_conns; idle_timeout }
    f

let with_client ?namespace ?depth path f =
  let conn = Servsim.Remote.connect_unix ?namespace ?depth path in
  Fun.protect
    ~finally:(fun () ->
      ((try Servsim.Remote.close conn with _ -> ()) [@lint.allow "exception-hygiene"]))
    (fun () -> f conn)

(* A raw (non-[Remote]) connection, for speaking out of protocol. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* One-slot [Exchange] frames. *)
let put s i c = Servsim.Wire.Exchange { puts = [ (s, [ (i, c) ]) ]; gets = [] }
let get s i = Servsim.Wire.Exchange { puts = []; gets = [ (s, [ i ]) ] }

let discover_fds conn table =
  let r = Core.Protocol.discover ~seed:99 ~remote:conn Core.Protocol.Sort table in
  String.concat ";" (List.map (Format.asprintf "%a" Fdbase.Fd.pp) r.Core.Protocol.fds)

(* {2 Tenant isolation under concurrency} *)

let test_concurrent_tenants_match_single_client () =
  let table = Datasets.Examples.fig1 () in
  (* Reference: one daemon, one client, one tenant. *)
  let ref_fds = ref "" and ref_digests = ref (0L, 0L, 0) in
  with_daemon (fun path _ ->
      with_client ~namespace:"solo" path (fun conn ->
          ref_fds := discover_fds conn table;
          ref_digests := Servsim.Remote.server_digests conn));
  (* Two tenants running the same protocol concurrently on one daemon:
     each tenant's server-side trace must be bit-identical to the
     single-client run — neither client can even see that the other
     exists in its own adversary view. *)
  with_daemon (fun path _ ->
      let run ns out_fds out_digests () =
        with_client ~namespace:ns path (fun conn ->
            out_fds := discover_fds conn table;
            out_digests := Servsim.Remote.server_digests conn)
      in
      let a_fds = ref "" and a_dig = ref (0L, 0L, 0) in
      let b_fds = ref "" and b_dig = ref (0L, 0L, 0) in
      let ta = Thread.create (run "alice" a_fds a_dig) () in
      let tb = Thread.create (run "bob" b_fds b_dig) () in
      Thread.join ta;
      Thread.join tb;
      Alcotest.(check string) "alice finds the same FDs" !ref_fds !a_fds;
      Alcotest.(check string) "bob finds the same FDs" !ref_fds !b_fds;
      let f0, s0, c0 = !ref_digests in
      let check_digests who (f, s, c) =
        Alcotest.(check int64) (who ^ " full digest") f0 f;
        Alcotest.(check int64) (who ^ " shape digest") s0 s;
        Alcotest.(check int) (who ^ " trace count") c0 c
      in
      check_digests "alice" !a_dig;
      check_digests "bob" !b_dig)

let test_tenant_state_survives_reconnect () =
  with_daemon (fun path _ ->
      with_client ~namespace:"durable" path (fun conn ->
          ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 4)));
          ignore (Servsim.Remote.call conn (put "s" 1 "kept")));
      with_client ~namespace:"durable" path (fun conn ->
          match Servsim.Remote.call conn (get "s" 1) with
          | Servsim.Wire.Values [ v ] -> Alcotest.(check string) "value survives" "kept" v
          | _ -> Alcotest.fail "get after reconnect");
      (* ...but another namespace sees none of it. *)
      with_client ~namespace:"stranger" path (fun conn ->
          Alcotest.(check bool) "other tenant has no store" true
            (match Servsim.Remote.call conn (get "s" 1) with
            | exception Servsim.Wire.Protocol_error _ -> true
            | _ -> false)))

(* {2 Session accounting} *)

let test_frames_match_session_ledger () =
  with_daemon (fun path _ ->
      with_client ~namespace:"ledger" path (fun conn ->
          (* A tenant that has served no counted frame has no latency
             sample yet: the first Stats is answered before its own is
             taken. *)
          let s0 = Servsim.Remote.stats conn in
          Alcotest.(check (list int)) "no samples, zero percentiles" [ 0; 0; 0 ]
            [ s0.Servsim.Wire.p50_us; s0.Servsim.Wire.p95_us; s0.Servsim.Wire.p99_us ];
          ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 8)));
          for i = 0 to 7 do
            ignore (Servsim.Remote.call conn (put "s" i "x"))
          done;
          Servsim.Remote.ping conn;
          let stats = Servsim.Remote.stats conn in
          Alcotest.(check int) "server ledger equals client frames"
            (Servsim.Remote.frames conn) stats.Servsim.Wire.frames;
          (* A second look must observe the first Stats exchange too. *)
          let stats2 = Servsim.Remote.stats conn in
          Alcotest.(check int) "still equal after Stats itself"
            (Servsim.Remote.frames conn) stats2.Servsim.Wire.frames;
          Alcotest.(check bool) "sampled latency percentiles are ordered" true
            (stats2.Servsim.Wire.p50_us <= stats2.Servsim.Wire.p95_us
            && stats2.Servsim.Wire.p95_us <= stats2.Servsim.Wire.p99_us);
          (* [sessions] is the daemon's live connection count. *)
          Alcotest.(check int) "one live session" 1 stats2.Servsim.Wire.sessions;
          with_client ~namespace:"ledger-peer" path (fun _ ->
              Alcotest.(check int) "two live sessions while a second tenant is connected" 2
                (Servsim.Remote.stats conn).Servsim.Wire.sessions)))

(* {2 Fault isolation} *)

let test_mid_frame_disconnect_leaves_others_served () =
  with_daemon (fun path _ ->
      with_client ~namespace:"survivor" path (fun conn ->
          ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 2)));
          (* A second client dies mid-frame: version byte, Hello, then an
             Exchange whose puts-count prefix is cut short by an abrupt
             close. *)
          let fd, ic, oc = raw_connect path in
          output_char oc (Char.chr Servsim.Wire.protocol_version);
          flush oc;
          Alcotest.(check int) "handshake answered" Servsim.Wire.protocol_version
            (Char.code (input_char ic));
          Servsim.Wire.write_request oc (Servsim.Wire.Hello "victim");
          (match Servsim.Wire.read_response ic with
          | Servsim.Wire.Ok -> ()
          | _ -> Alcotest.fail "hello");
          output_string oc "\019\002";
          flush oc;
          Unix.close fd;
          (* The survivor is still served by the same daemon. *)
          ignore (Servsim.Remote.call conn (put "s" 0 "alive"));
          match Servsim.Remote.call conn (get "s" 0) with
          | Servsim.Wire.Values [ v ] -> Alcotest.(check string) "served after kill" "alive" v
          | _ -> Alcotest.fail "get"))

let test_malformed_frame_closes_only_offender () =
  with_daemon (fun path _ ->
      with_client ~namespace:"bystander" path (fun conn ->
          let fd, ic, oc = raw_connect path in
          output_char oc (Char.chr Servsim.Wire.protocol_version);
          flush oc;
          ignore (input_char ic);
          Servsim.Wire.write_request oc (Servsim.Wire.Hello "hostile");
          (match Servsim.Wire.read_response ic with
          | Servsim.Wire.Ok -> ()
          | _ -> Alcotest.fail "hello");
          (* An unknown tag is beyond resync: the daemon must answer one
             final Error and hang up on this connection only. *)
          output_char oc '\042';
          flush oc;
          (match Servsim.Wire.read_response ic with
          | Servsim.Wire.Error _ -> ()
          | _ -> Alcotest.fail "expected Error for bad tag");
          Alcotest.(check bool) "offender hung up" true
            (match input_char ic with
            | _ -> false
            | exception End_of_file -> true);
          Unix.close fd;
          Servsim.Remote.ping conn))

(* A [Create_store] claiming more slots than any batch could fill would
   make the daemon allocate (and a snapshot re-allocate) that many: it
   is a malformed frame, so only the offending connection is dropped. *)
let test_oversized_create_store_isolated () =
  with_daemon (fun path _ ->
      with_client ~namespace:"bystander" path (fun conn ->
          ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 4)));
          let fd, ic, oc = raw_connect path in
          output_char oc (Char.chr Servsim.Wire.protocol_version);
          flush oc;
          ignore (input_char ic);
          Servsim.Wire.write_request oc (Servsim.Wire.Hello "hostile");
          (match Servsim.Wire.read_response ic with
          | Servsim.Wire.Ok -> ()
          | _ -> Alcotest.fail "hello");
          (* Create_store ("s", max_list_len + 1), hand-encoded: the
             client codec refuses to write it. *)
          let claim = Servsim.Wire.max_list_len + 1 in
          output_string oc "\001\001\000\000\000s";
          for k = 0 to 3 do
            output_char oc (Char.chr ((claim lsr (k * 8)) land 0xff))
          done;
          flush oc;
          (match Servsim.Wire.read_response ic with
          | Servsim.Wire.Error _ -> ()
          | _ -> Alcotest.fail "expected Error for an oversized Create_store");
          Alcotest.(check bool) "offender hung up" true
            (match input_char ic with
            | _ -> false
            | exception End_of_file -> true);
          Unix.close fd;
          ignore (Servsim.Remote.exchange conn ~puts:[ ("s", [ (3, "still served") ]) ] ~gets:[]);
          Alcotest.(check (list string)) "bystander still served" [ "still served" ]
            (Servsim.Remote.exchange conn ~puts:[] ~gets:[ ("s", [ 3 ]) ])))

let test_hello_required_first () =
  with_daemon (fun path _ ->
      let fd, ic, oc = raw_connect path in
      output_char oc (Char.chr Servsim.Wire.protocol_version);
      flush oc;
      ignore (input_char ic);
      Servsim.Wire.write_request oc Servsim.Wire.Ping;
      (match Servsim.Wire.read_response ic with
      | Servsim.Wire.Error _ -> ()
      | _ -> Alcotest.fail "expected Error before Hello");
      Alcotest.(check bool) "connection closed" true
        (match input_char ic with _ -> false | exception End_of_file -> true);
      Unix.close fd)

let test_v2_handshake_rejected () =
  with_daemon (fun path _ ->
      let fd, ic, oc = raw_connect path in
      output_char oc '\002';
      flush oc;
      (* The daemon announces its own version so the stale client can
         diagnose the mismatch, then hangs up. *)
      Alcotest.(check int) "daemon announces its version" Servsim.Wire.protocol_version
        (Char.code (input_char ic));
      Alcotest.(check bool) "then hangs up" true
        (match input_char ic with _ -> false | exception End_of_file -> true);
      Unix.close fd)

(* {2 Robustness: cap, idle timeout, drain} *)

let test_connection_cap () =
  with_daemon ~max_conns:2 (fun path _ ->
      with_client ~namespace:"one" path (fun _c1 ->
          with_client ~namespace:"two" path (fun _c2 ->
              Alcotest.(check bool) "third connection turned away" true
                (match Servsim.Remote.connect_unix ~namespace:"three" path with
                | conn ->
                    Servsim.Remote.close conn;
                    false
                | exception _ -> true))))

let test_idle_timeout () =
  with_daemon ~idle_timeout:0.3 (fun path _ ->
      with_client ~namespace:"sleepy" path (fun conn ->
          Servsim.Remote.ping conn;
          Unix.sleepf 1.2;
          Alcotest.(check bool) "idle connection was closed" true
            (match Servsim.Remote.ping conn with
            | () -> false
            | exception _ -> true)))

let test_graceful_drain () =
  let path = Filename.temp_file "svc-test" ".sock" in
  Sys.remove path;
  let daemon =
    Service.Daemon.create
      { Service.Daemon.default_config with unix_path = Some path }
  in
  let th = Thread.create Service.Daemon.run daemon in
  let conn = Servsim.Remote.connect_unix ~namespace:"draining" path in
  ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 2)));
  Service.Daemon.stop daemon;
  (* Already-connected clients keep being served during the drain... *)
  ignore (Servsim.Remote.call conn (put "s" 1 "drained"));
  Servsim.Remote.ping conn;
  (* ...and once the last one leaves, the daemon exits. *)
  Servsim.Remote.close conn;
  Thread.join th;
  Alcotest.(check bool) "socket path removed" false (Sys.file_exists path);
  Alcotest.(check int) "no live connections" 0 (Service.Daemon.live_conns daemon)

(* [with_local]'s cleanup when its body raises: the exception reaches
   the caller unchanged, a connection left open by the body is closed
   by the drain deadline, and the socket path is gone. *)
exception Body_failed of string

let test_with_local_body_raises () =
  let seen = ref None and client = ref None in
  (match
     Service.Daemon.with_local
       ~config:{ Service.Daemon.default_config with drain_grace = 0.2 }
       (fun path daemon ->
         seen := Some (path, daemon);
         let conn = Servsim.Remote.connect_unix ~namespace:"raiser" path in
         client := Some conn;
         Servsim.Remote.ping conn;
         Alcotest.(check int) "one live connection" 1 (Service.Daemon.live_conns daemon);
         raise (Body_failed "boom"))
   with
  | () -> Alcotest.fail "with_local returned"
  | exception Body_failed msg -> Alcotest.(check string) "body's exception unchanged" "boom" msg);
  Option.iter Servsim.Remote.close !client;
  match !seen with
  | None -> Alcotest.fail "body never ran"
  | Some (path, daemon) ->
      Alcotest.(check int) "no live connections" 0 (Service.Daemon.live_conns daemon);
      Alcotest.(check bool) "socket path removed" false (Sys.file_exists path);
      Alcotest.(check bool) "connecting afterwards fails" true
        (match Servsim.Remote.connect_unix ~namespace:"late" path with
        | conn ->
            Servsim.Remote.close conn;
            false
        | exception Unix.Unix_error _ -> true)

let test_tcp_listener () =
  Service.Daemon.with_local
    ~config:{ Service.Daemon.default_config with tcp = Some ("127.0.0.1", 0) }
    (fun _ daemon ->
      let port =
        match Service.Daemon.tcp_port daemon with Some p -> p | None -> Alcotest.fail "no port"
      in
      let conn = Servsim.Remote.connect_tcp ~namespace:"tcp" ~host:"127.0.0.1" ~port () in
      Servsim.Remote.ping conn;
      ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 1)));
      ignore (Servsim.Remote.call conn (put "s" 0 "over tcp"));
      (match Servsim.Remote.call conn (get "s" 0) with
      | Servsim.Wire.Values [ v ] -> Alcotest.(check string) "tcp roundtrip" "over tcp" v
      | _ -> Alcotest.fail "get");
      Servsim.Remote.close conn)

(* {2 Handshake robustness and the descriptor ceiling} *)

(* A client that trickles its handshake — version byte alone, then the
   [Hello] frame split mid-bytes — must be reassembled exactly:
   readiness semantics are Evloop-internal and must not leak into
   framing. *)
let test_trickled_handshake () =
  with_daemon (fun path _ ->
      let fd, ic, oc = raw_connect path in
      output_char oc (Char.chr Servsim.Wire.protocol_version);
      flush oc;
      Alcotest.(check int) "echoed version" Servsim.Wire.protocol_version
        (Char.code (input_char ic));
      let buf = Buffer.create 64 in
      Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf)
        (Servsim.Wire.Hello "slow");
      let frame = Buffer.contents buf in
      let cut = String.length frame / 2 in
      output_string oc (String.sub frame 0 cut);
      flush oc;
      Unix.sleepf 0.05;
      output_string oc (String.sub frame cut (String.length frame - cut));
      flush oc;
      (match Servsim.Wire.read_response ic with
      | Servsim.Wire.Ok -> ()
      | _ -> Alcotest.fail "hello after trickle");
      Servsim.Wire.write_request oc Servsim.Wire.Ping;
      (match Servsim.Wire.read_response ic with
      | Servsim.Wire.Pong -> ()
      | _ -> Alcotest.fail "ping after trickle");
      Unix.close fd)

(* Frames a client pipelines behind its [Hello] in the same write are
   served in order once the [Hello] binds the tenant: the version byte,
   [Hello], [Create_store] and two [Ping]s in one [write] come back as
   the version echo, [Ok], [Ok], [Pong], [Pong]. *)
let test_pipelined_behind_hello () =
  with_daemon (fun path _ ->
      let fd, ic, _ = raw_connect path in
      let buf = Buffer.create 64 in
      Buffer.add_char buf (Char.chr Servsim.Wire.protocol_version);
      List.iter
        (Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf))
        Servsim.Wire.[ Hello "burst"; Create_store ("s", 1); Ping; Ping ];
      let burst = Buffer.contents buf in
      Alcotest.(check int) "one write carries the whole burst" (String.length burst)
        (Unix.write_substring fd burst 0 (String.length burst));
      Alcotest.(check int) "echoed version" Servsim.Wire.protocol_version
        (Char.code (input_char ic));
      List.iter
        (fun (what, expected) ->
          Alcotest.(check bool) what true (Servsim.Wire.read_response ic = expected))
        Servsim.Wire.[ ("hello", Ok); ("create_store", Ok); ("ping", Pong); ("ping", Pong) ];
      Unix.close fd)

(* The handshake stage is unauthenticated, so its buffering is
   bounded: a client opening with a jumbo first frame is cut off at
   [Conn.pre_hello_max], long before the 64 MiB frame cap. *)
let test_handshake_flood_bounded () =
  with_daemon (fun path _ ->
      let fd, ic, oc = raw_connect path in
      output_char oc (Char.chr Servsim.Wire.protocol_version);
      flush oc;
      ignore (input_char ic);
      (* A well-formed Exchange frame much larger than the pre-hello budget,
         sent all but its last byte so it never completes. *)
      let buf = Buffer.create 16_384 in
      Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf)
        (put "s" 0 (String.make (4 * Service.Conn.pre_hello_max) 'x'));
      let frame = Buffer.contents buf in
      output_string oc (String.sub frame 0 (String.length frame - 1));
      flush oc;
      (match Servsim.Wire.read_response ic with
      | Servsim.Wire.Error _ -> ()
      | _ -> Alcotest.fail "expected Error for an oversized pre-hello frame");
      Alcotest.(check bool) "connection closed" true
        (match input_char ic with _ -> false | exception End_of_file -> true);
      Unix.close fd)

(* Poll has no FD_SETSIZE wall: the daemon accepts and serves
   descriptors numbered past 1024.  Each connection holds two
   descriptors in this (shared-table, in-process) test, so 1100 of them
   push fd numbers well past 1024; every one completes its handshake
   and session setup, and a sample across the whole fd range is then
   served with all the others still open. *)
let fanout_conns = 1100

let test_fanout_past_fd_setsize () =
  with_daemon ~max_conns:(fanout_conns + 64) (fun path _ ->
      let conns =
        Array.init fanout_conns (fun i ->
            let fd, ic, oc = raw_connect path in
            output_char oc (Char.chr Servsim.Wire.protocol_version);
            flush oc;
            Alcotest.(check int)
              (Printf.sprintf "conn %d handshake" i)
              Servsim.Wire.protocol_version
              (Char.code (input_char ic));
            Servsim.Wire.write_request oc
              (Servsim.Wire.Hello (Printf.sprintf "fan-%d" (i mod 7)));
            (match Servsim.Wire.read_response ic with
            | Servsim.Wire.Ok -> ()
            | _ -> Alcotest.failf "conn %d hello" i);
            (fd, ic, oc))
      in
      Array.iteri
        (fun i (_, ic, oc) ->
          if i mod 97 = 0 || i = fanout_conns - 1 then begin
            Servsim.Wire.write_request oc Servsim.Wire.Ping;
            match Servsim.Wire.read_response ic with
            | Servsim.Wire.Pong -> ()
            | _ -> Alcotest.failf "conn %d not served" i
          end)
        conns;
      Array.iter (fun (fd, _, _) -> Unix.close fd) conns)

(* {2 Client pipelining} *)

let test_pipelined_ordered () =
  with_daemon (fun path _ ->
      with_client ~namespace:"pipe" ~depth:8 path (fun conn ->
          ignore (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", 32)));
          let reqs =
            List.concat_map
              (fun i ->
                [ put "s" i (Printf.sprintf "v%d" i); get "s" i ])
              (List.init 32 Fun.id)
          in
          let resps = Servsim.Remote.pipelined conn reqs in
          Alcotest.(check int) "one response per request" (List.length reqs)
            (List.length resps);
          List.iteri
            (fun i r ->
              match (i mod 2, r) with
              | 0, Servsim.Wire.Values [] -> ()
              | 1, Servsim.Wire.Values [ v ] ->
                  Alcotest.(check string) "responses in request order"
                    (Printf.sprintf "v%d" (i / 2))
                    v
              | _ -> Alcotest.failf "response %d out of order" i)
            resps;
          (* Pipelined frames hit the same ledger as synchronous ones. *)
          let stats = Servsim.Remote.stats conn in
          Alcotest.(check int) "server ledger equals client frames"
            (Servsim.Remote.frames conn) stats.Servsim.Wire.frames))

let test_send_recv_window () =
  with_daemon (fun path _ ->
      with_client ~namespace:"raw" ~depth:4 path (fun conn ->
          for _ = 1 to 4 do
            Servsim.Remote.send conn Servsim.Wire.Ping
          done;
          Alcotest.(check int) "window full" 4 (Servsim.Remote.inflight conn);
          Alcotest.(check bool) "fifth send refused" true
            (match Servsim.Remote.send conn Servsim.Wire.Ping with
            | () -> false
            | exception Servsim.Wire.Protocol_error _ -> true);
          for _ = 1 to 4 do
            match Servsim.Remote.recv conn with
            | Servsim.Wire.Pong -> ()
            | _ -> Alcotest.fail "expected Pong"
          done;
          Alcotest.(check int) "window drained" 0 (Servsim.Remote.inflight conn);
          Alcotest.(check bool) "recv with nothing in flight refused" true
            (match Servsim.Remote.recv conn with
            | _ -> false
            | exception Servsim.Wire.Protocol_error _ -> true);
          (* The connection is fully usable synchronously afterwards. *)
          Servsim.Remote.ping conn))

(* {2 Event-loop syscall accounting} *)

let test_loop_counters_in_stats () =
  with_daemon (fun path _ ->
      with_client ~namespace:"counted" path (fun conn ->
          for _ = 1 to 5 do
            Servsim.Remote.ping conn
          done;
          let s = Servsim.Remote.stats conn in
          Alcotest.(check bool) "loop rounds counted" true (s.Servsim.Wire.loop_rounds > 0);
          Alcotest.(check bool) "read syscalls counted" true (s.Servsim.Wire.loop_reads > 0);
          Alcotest.(check bool) "write syscalls counted" true
            (s.Servsim.Wire.loop_writes > 0);
          Alcotest.(check bool) "wakeups counted, at most one per round" true
            (s.Servsim.Wire.loop_wakeups > 0
            && s.Servsim.Wire.loop_wakeups <= s.Servsim.Wire.loop_rounds)))

(* Two live connections plus a later reconnect, all saying
   [Hello "pinned"]: one tenant, whose state every connection sees. *)
let test_same_namespace_shares_state () =
  with_daemon (fun path _ ->
      with_client ~namespace:"pinned" path (fun c1 ->
          with_client ~namespace:"pinned" path (fun c2 ->
              ignore (Servsim.Remote.call c1 (Servsim.Wire.Create_store ("s", 2)));
              ignore (Servsim.Remote.exchange c1 ~puts:[ ("s", [ (0, "via c1") ]) ] ~gets:[]);
              (* c2 sees c1's write: same tenant state. *)
              match Servsim.Remote.call c2 (get "s" 0) with
              | Servsim.Wire.Values [ v ] ->
                  Alcotest.(check string) "shared session state" "via c1" v
              | _ -> Alcotest.fail "get via second connection"));
      with_client ~namespace:"pinned" path (fun c3 ->
          match Servsim.Remote.call c3 (get "s" 0) with
          | Servsim.Wire.Values [ v ] ->
              Alcotest.(check string) "state survives reconnect" "via c1" v
          | _ -> Alcotest.fail "get after reconnect"))

(* {2 Dynamic FD sessions over the wire (protocol v5)} *)

let dyn_rows = [ [ 1; 10; 100 ]; [ 1; 10; 200 ]; [ 2; 20; 100 ]; [ 3; 20; 200 ] ]

let enc_row ints =
  Dynserve.encode_row (Array.of_list (List.map (fun i -> Relation.Value.Int i) ints))

(* The one-shot library run the wire session must match bit-for-bit:
   same seed, same initial table, same update sequence. *)
let dyn_reference ~seed =
  let v x = Relation.Value.Int x in
  let schema = Relation.Schema.make (Array.init 3 (Printf.sprintf "c%d")) in
  let table =
    Relation.Table.make schema
      (Array.of_list (List.map (fun r -> Array.of_list (List.map v r)) dyn_rows))
  in
  let d = Core.Dynamic.start ~seed ~capacity:64 table in
  ignore (Core.Dynamic.insert d [| v 2; v 3; v 1 |]);
  ignore (Core.Dynamic.insert d [| v 3; v 1; v 1 |]);
  Core.Dynamic.delete d ~id:2;
  let reval = Core.Dynamic.revalidate d in
  let tr = Core.Session.trace (Core.Dynamic.session d) in
  let out =
    ( List.map
        (fun (fd, ok) ->
          (Int64.of_int (Relation.Attrset.to_int fd.Fdbase.Fd.lhs), fd.Fdbase.Fd.rhs, ok))
        reval,
      (Servsim.Trace.full_digest tr, Servsim.Trace.shape_digest tr, Servsim.Trace.count tr)
    )
  in
  Core.Dynamic.release d;
  out

let test_dynamic_session_matches_library () =
  let seed = 4242 in
  let ref_fds, (ref_full, ref_shape, ref_events) = dyn_reference ~seed in
  with_daemon (fun path _ ->
      with_client ~namespace:"dyn" ~depth:8 path (fun conn ->
          ignore
            (Servsim.Remote.begin_dynamic conn ~capacity:64 ~seed:(Int64.of_int seed)
               ~cols:3 (List.map enc_row dyn_rows));
          (* Pipelined update stream: ids are assigned sequentially after
             the initial table. *)
          let ids =
            Servsim.Remote.insert_rows conn [ enc_row [ 2; 3; 1 ]; enc_row [ 3; 1; 1 ] ]
          in
          Alcotest.(check (list int)) "sequential row ids" [ 4; 5 ] ids;
          Servsim.Remote.delete_row conn ~id:2;
          let r = Servsim.Remote.revalidate conn in
          Alcotest.(check int) "engine trace events match library" ref_events
            r.Servsim.Wire.dyn_events;
          Alcotest.(check int64) "full digest bit-identical" ref_full r.Servsim.Wire.dyn_full;
          Alcotest.(check int64) "shape digest bit-identical" ref_shape
            r.Servsim.Wire.dyn_shape;
          let got =
            List.map
              (fun s ->
                (s.Servsim.Wire.fd_lhs, s.Servsim.Wire.fd_rhs, s.Servsim.Wire.fd_valid))
              r.Servsim.Wire.fds
          in
          Alcotest.(check bool) "fd statuses match library" true (got = ref_fds);
          (* v5 per-verb counters and the resident-session gauge. *)
          let st = Servsim.Remote.stats conn in
          Alcotest.(check int) "inserts counted" 2 st.Servsim.Wire.inserts;
          Alcotest.(check int) "deletes counted" 1 st.Servsim.Wire.deletes;
          Alcotest.(check int) "revalidates counted" 1 st.Servsim.Wire.revalidates;
          Alcotest.(check int) "one dynamic session resident" 1 st.Servsim.Wire.dyn_sessions;
          (* A second Begin on an active session is refused... *)
          (match
             Servsim.Remote.call conn
               (Servsim.Wire.Begin_dynamic
                  { seed = 0L; capacity = 0; max_lhs = 0; cols = 3;
                    rows = List.map enc_row dyn_rows })
           with
          | exception Servsim.Wire.Protocol_error _ -> ()
          | _ -> Alcotest.fail "re-Begin must be refused");
          (* ...and an arity-mismatched update is rejected by the engine
             yet still counted — rejections are part of the deterministic
             history the durable journal replays. *)
          (match Servsim.Remote.call conn (Servsim.Wire.Insert_row (enc_row [ 1; 2 ])) with
          | exception Servsim.Wire.Protocol_error _ -> ()
          | _ -> Alcotest.fail "arity mismatch must be rejected");
          let st = Servsim.Remote.stats conn in
          Alcotest.(check int) "rejected insert still counted" 3 st.Servsim.Wire.inserts);
      (* Updates without a session are refused, and the gauge still shows
         only the one live session of the other tenant. *)
      with_client ~namespace:"bystander" path (fun conn ->
          (match Servsim.Remote.call conn (Servsim.Wire.Insert_row (enc_row [ 1; 2; 3 ])) with
          | exception Servsim.Wire.Protocol_error _ -> ()
          | _ -> Alcotest.fail "update without Begin must fail");
          let st = Servsim.Remote.stats conn in
          Alcotest.(check int) "gauge counts live sessions only" 1
            st.Servsim.Wire.dyn_sessions))

(* {2 Frame decoder unit tests (byte-at-a-time reassembly)} *)

let test_decoder_byte_at_a_time () =
  let req = put "store" 7 (String.make 100 'z') in
  let buf = Buffer.create 64 in
  Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf) req;
  let encoded = Buffer.to_bytes buf in
  let dec = Service.Frame_decoder.create () in
  let got = ref None in
  Bytes.iter
    (fun c ->
      Alcotest.(check bool) "no frame before last byte" true (!got = None);
      Service.Frame_decoder.feed dec (Bytes.make 1 c) ~off:0 ~len:1;
      match Service.Frame_decoder.next dec with
      | Some (r, n) -> got := Some (r, n)
      | None -> ())
    encoded;
  match !got with
  | Some (r, n) ->
      Alcotest.(check bool) "frame decoded" true (r = req);
      Alcotest.(check int) "consumed exactly the frame" (Bytes.length encoded) n;
      Alcotest.(check int) "no residue" 0 (Service.Frame_decoder.pending_bytes dec)
  | None -> Alcotest.fail "frame never completed"

let test_decoder_pipelined_frames () =
  let reqs =
    [ Servsim.Wire.Ping; get "a" 1;
      put "b" 2 "vv";
      Servsim.Wire.Stats ]
  in
  let buf = Buffer.create 64 in
  List.iter (fun r -> Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf) r) reqs;
  let dec = Service.Frame_decoder.create () in
  Service.Frame_decoder.feed dec (Buffer.to_bytes buf) ~off:0 ~len:(Buffer.length buf);
  let rec drain acc =
    match Service.Frame_decoder.next dec with
    | Some (r, _) -> drain (r :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check bool) "all pipelined frames decoded in order" true (drain [] = reqs)

(* The O(n²) regression: a burst of pipelined frames fed in one chunk
   used to re-copy the remaining buffer once per decoded frame.  The
   decoder now tracks a consumed offset and compacts at a threshold, so
   draining n frames costs O(1) compactions. *)
let test_decoder_burst_compactions_bounded () =
  let n = 500 in
  let req i = put "burst" (i mod 32) (String.make 40 'x') in
  let buf = Buffer.create (n * 64) in
  for i = 0 to n - 1 do
    Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf) (req i)
  done;
  let dec = Service.Frame_decoder.create () in
  Service.Frame_decoder.feed dec (Buffer.to_bytes buf) ~off:0 ~len:(Buffer.length buf);
  let decoded = ref 0 in
  let ok = ref true in
  let continue = ref true in
  while !continue do
    match Service.Frame_decoder.next dec with
    | Some (r, _) ->
        ok := !ok && r = req !decoded;
        incr decoded
    | None -> continue := false
  done;
  Alcotest.(check int) "all frames decoded" n !decoded;
  Alcotest.(check bool) "in order" true !ok;
  Alcotest.(check int) "no residue" 0 (Service.Frame_decoder.pending_bytes dec);
  (* The feed itself may compact/grow a handful of times; what must not
     happen is one compaction per frame. *)
  Alcotest.(check bool) "O(1) compactions for the burst" true
    (Service.Frame_decoder.compactions dec < 20)

let test_decoder_trickled_large_frame () =
  let req = put "big" 0 (String.make 20_000 'y') in
  let buf = Buffer.create 32_000 in
  Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf) req;
  let encoded = Buffer.to_bytes buf in
  let dec = Service.Frame_decoder.create () in
  let got = ref false in
  let chunk = 777 in
  let off = ref 0 in
  while not !got && !off < Bytes.length encoded do
    let len = min chunk (Bytes.length encoded - !off) in
    Service.Frame_decoder.feed dec encoded ~off:!off ~len;
    off := !off + len;
    match Service.Frame_decoder.next dec with
    | Some (r, n) ->
        Alcotest.(check bool) "large frame decoded" true (r = req);
        Alcotest.(check int) "size accounted" (Bytes.length encoded) n;
        got := true
    | None -> ()
  done;
  Alcotest.(check bool) "frame completed" true !got;
  Alcotest.(check int) "only on full arrival" (Bytes.length encoded) !off

(* A frame cut inside a 32-bit count, index or length field decodes to
   nothing until the rest arrives, then to exactly the frame.  Byte
   offsets: tag 0, put-group count 1-4, store-name length 5-8, item
   count 11-14, slot index 15-18, value length 19-22, get-group count
   29-32. *)
let test_decoder_split_in_word () =
  let req =
    Servsim.Wire.Exchange
      { puts = [ ("st", [ (0x01020304, "abcdef") ]) ]; gets = [ ("st", [ 7 ]) ] }
  in
  let buf = Buffer.create 64 in
  Servsim.Wire.write_request_sink (Servsim.Wire.buffer_sink buf) req;
  let encoded = Buffer.to_bytes buf in
  let len = Bytes.length encoded in
  List.iter
    (fun cut ->
      let what = Printf.sprintf "cut at %d" cut in
      let dec = Service.Frame_decoder.create () in
      Service.Frame_decoder.feed dec encoded ~off:0 ~len:cut;
      Alcotest.(check bool) (what ^ ": no frame yet") true (Service.Frame_decoder.next dec = None);
      Service.Frame_decoder.feed dec encoded ~off:cut ~len:(len - cut);
      match Service.Frame_decoder.next dec with
      | Some (r, n) ->
          Alcotest.(check bool) (what ^ ": frame decoded") true (r = req);
          Alcotest.(check int) (what ^ ": consumed the frame") len n;
          Alcotest.(check int) (what ^ ": no residue") 0
            (Service.Frame_decoder.pending_bytes dec)
      | None -> Alcotest.fail (what ^ ": frame never completed"))
    [ 2; 3; 4; 6; 12; 17; 20; 30 ]

(* {2 Latency reservoir} *)

let test_latency_reservoir () =
  let module R = Service.Metrics.Reservoir in
  let pcts = Alcotest.(triple (float 0.) (float 0.) (float 0.)) in
  let r = R.create () in
  Alcotest.check pcts "empty reservoir reports zeros" (0., 0., 0.) (R.percentiles r);
  let xs = List.init 100 (fun i -> float_of_int (i * 37 mod 100)) in
  List.iter (R.add r) xs;
  Alcotest.check pcts "same percentiles as the sample" (Service.Metrics.percentiles xs)
    (R.percentiles r);
  (* Past [size] samples the ring wraps: the 100 newest, larger than
     any before them, overwrite the 100 oldest, and every other sample
     stays. *)
  let r = R.create () in
  let old = List.init R.size (fun i -> 1000. +. float_of_int i) in
  let fresh = List.map (fun x -> 1e6 +. x) xs in
  List.iter (R.add r) old;
  List.iter (R.add r) fresh;
  Alcotest.check pcts "keeps the newest size samples"
    (Service.Metrics.percentiles (fresh @ List.filteri (fun i _ -> i >= 100) old))
    (R.percentiles r)

(* A tenant cap needs somewhere to evict to: the registry refuses one
   without a data dir instead of keeping every tenant regardless. *)
let test_session_cap_needs_data_dir () =
  let create data_dir max_resident =
    match
      Service.Session.create
        ~config:{ Service.Session.default_config with data_dir; max_resident }
        ()
    with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  Alcotest.(check bool) "cap without a data dir refused" false (create None 1);
  Alcotest.(check bool) "no cap, no data dir" true (create None 0);
  Alcotest.(check bool) "cap with a data dir" true
    (create (Some (Filename.concat (Filename.get_temp_dir_name ()) "sfdd-unused")) 1)

let suite =
  [
    Alcotest.test_case "session cap needs a data dir" `Quick test_session_cap_needs_data_dir;
    Alcotest.test_case "concurrent tenants match single-client digests" `Quick
      test_concurrent_tenants_match_single_client;
    Alcotest.test_case "mid-frame disconnect isolated" `Quick
      test_mid_frame_disconnect_leaves_others_served;
    Alcotest.test_case "idle timeout" `Slow test_idle_timeout;
    Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
    Alcotest.test_case "with_local cleans up when the body raises" `Quick
      test_with_local_body_raises;
    Alcotest.test_case "trickled handshake reassembled" `Quick test_trickled_handshake;
    Alcotest.test_case "frames pipelined behind hello" `Quick test_pipelined_behind_hello;
    Alcotest.test_case "pre-hello buffering bounded" `Quick test_handshake_flood_bounded;
    Alcotest.test_case "pipelined client, ordered responses" `Quick test_pipelined_ordered;
    Alcotest.test_case "serves past FD_SETSIZE" `Slow test_fanout_past_fd_setsize;
    Alcotest.test_case "tenant state survives reconnect" `Quick
      test_tenant_state_survives_reconnect;
    Alcotest.test_case "frames match per-session ledger" `Quick
      test_frames_match_session_ledger;
    Alcotest.test_case "malformed frame isolated" `Quick
      test_malformed_frame_closes_only_offender;
    Alcotest.test_case "oversized Create_store isolated" `Quick
      test_oversized_create_store_isolated;
    Alcotest.test_case "hello required first" `Quick test_hello_required_first;
    Alcotest.test_case "v2 handshake rejected" `Quick test_v2_handshake_rejected;
    Alcotest.test_case "connection cap" `Quick test_connection_cap;
    Alcotest.test_case "raw send/recv window" `Quick test_send_recv_window;
    Alcotest.test_case "loop syscall counters in stats" `Quick test_loop_counters_in_stats;
    Alcotest.test_case "tcp listener" `Quick test_tcp_listener;
    Alcotest.test_case "same namespace shares state" `Quick test_same_namespace_shares_state;
    Alcotest.test_case "dynamic session matches one-shot library run" `Quick
      test_dynamic_session_matches_library;
    Alcotest.test_case "decoder byte-at-a-time" `Quick test_decoder_byte_at_a_time;
    Alcotest.test_case "decoder pipelined frames" `Quick test_decoder_pipelined_frames;
    Alcotest.test_case "decoder burst compactions bounded" `Quick
      test_decoder_burst_compactions_bounded;
    Alcotest.test_case "decoder split inside a word" `Quick test_decoder_split_in_word;
    Alcotest.test_case "decoder trickled large frame" `Quick
      test_decoder_trickled_large_frame;
    Alcotest.test_case "latency reservoir wraps, keeps the newest" `Quick
      test_latency_reservoir;
  ]
