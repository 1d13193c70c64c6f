(* fdserved: the multi-tenant oblivious block-service daemon.

     fdserved --unix /tmp/fdd.sock
     fdserved --tcp 127.0.0.1:7144 --max-conns 128 --idle-timeout 60
     fdserved --selftest        # loopback smoke test, exits 0 on success *)

open Cmdliner

let parse_tcp s =
  match String.rindex_opt s ':' with
  | None -> invalid_arg (Printf.sprintf "--tcp %S: expected HOST:PORT" s)
  | Some i ->
      let host = String.sub s 0 i in
      let port = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      (host, port)

let serve unix_path tcp max_conns idle_timeout drain_grace data_dir max_resident verbose =
  let log = if verbose then fun msg -> Printf.eprintf "fdserved: %s\n%!" msg else ignore in
  let cfg =
    {
      Service.Daemon.default_config with
      unix_path;
      tcp = Option.map parse_tcp tcp;
      max_conns;
      idle_timeout;
      drain_grace;
      data_dir;
      max_resident;
      log;
    }
  in
  let daemon = Service.Daemon.create cfg in
  Service.Daemon.install_stop_signals daemon;
  (match Service.Daemon.tcp_port daemon with
  | Some port -> Printf.printf "fdserved: listening on tcp port %d\n%!" port
  | None -> ());
  (match unix_path with
  | Some path -> Printf.printf "fdserved: listening on unix socket %s\n%!" path
  | None -> ());
  (match data_dir with
  | Some dir ->
      Printf.printf "fdserved: durable tenant state under %s%s\n%!" dir
        (if max_resident > 0 then Printf.sprintf " (max %d resident)" max_resident
         else "")
  | None -> ());
  Service.Daemon.run daemon;
  `Ok ()

(* Loopback smoke test: daemon in its own domain on a fresh Unix
   socket, two clients in disjoint namespaces doing real block traffic,
   then a graceful drain.  Used from `dune runtest`. *)
let selftest_serve () =
  let fail fmt = Printf.ksprintf (fun m -> failwith ("selftest: " ^ m)) fmt in
  let check name cond = if not cond then fail "%s" name in
  let daemon =
    Service.Daemon.with_local
      ~config:{ Service.Daemon.default_config with drain_grace = 10. }
      (fun path daemon ->
        let open Servsim in
        let a = Remote.connect_unix ~namespace:"alice" path in
        let b = Remote.connect_unix ~namespace:"bob" path in
        Remote.ping a;
        Remote.ping b;
        let setup conn fill =
          check "create" (Remote.call conn (Wire.Create_store ("blocks", 8)) = Wire.Ok);
          ignore (Remote.exchange conn ~puts:[ ("blocks", [ (3, String.make 64 fill) ]) ] ~gets:[])
        in
        let get conn = Remote.exchange conn ~puts:[] ~gets:[ ("blocks", [ 3 ]) ] in
        setup a 'A';
        setup b 'B';
        check "tenant isolation" (get a <> get b);
        let stats = Remote.stats a in
        check "stats frames" (stats.Wire.frames = Remote.frames a);
        check "stats sessions" (stats.Wire.sessions = 2);
        Remote.close b;
        (* b is gone; a must still be served. *)
        check "a alive after b closed" (get a = [ String.make 64 'A' ]);
        Remote.close a;
        daemon)
  in
  check "drained" (Service.Daemon.live_conns daemon = 0);
  Printf.printf "fdserved selftest: OK\n%!"

(* A selftest daemon on a temporary socket, in memory or backed by
   [data_dir]; [f] gets the socket path. *)
let with_daemon ~data_dir f =
  Service.Daemon.with_local
    ~config:{ Service.Daemon.default_config with drain_grace = 10.; data_dir }
    (fun path _ -> f path)

let fresh_data_dir () =
  let p = Filename.temp_file "fdserved" ".data" in
  Sys.remove p;
  p

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Persistence smoke test: the same op sequence served (a) by one
   uninterrupted in-memory daemon across a client reconnect and (b) by a
   disk-backed daemon that is gracefully restarted between the two
   connections.  Digests, trace count and the server-side frame ledger
   must be bit-identical — restart must be invisible. *)
let selftest_persist () =
  let open Servsim in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("selftest-persist: " ^ m)) fmt in
  let check name cond = if not cond then fail "%s" name in
  let batch_a conn =
    check "create" (Remote.call conn (Wire.Create_store ("blocks", 16)) = Wire.Ok);
    for i = 0 to 15 do
      ignore (Remote.exchange conn ~puts:[ ("blocks", [ (i, String.make 48 'p') ]) ] ~gets:[])
    done;
    check "get" (Remote.exchange conn ~puts:[] ~gets:[ ("blocks", [ 7 ]) ] = [ String.make 48 'p' ])
  in
  let batch_b conn =
    for i = 0 to 15 do
      ignore (Remote.exchange conn ~puts:[ ("blocks", [ (i, String.make 32 'q') ]) ] ~gets:[])
    done;
    check "get2"
      (Remote.exchange conn ~puts:[] ~gets:[ ("blocks", [ 3 ]) ] = [ String.make 32 'q' ]);
    let stats = Remote.stats conn in
    let digests = Remote.server_digests conn in
    (digests, stats.Wire.frames)
  in
  (* Reference: one daemon, two sequential connections. *)
  let reference =
    with_daemon ~data_dir:None (fun path ->
        let c1 = Remote.connect_unix ~namespace:"tenant" path in
        batch_a c1;
        Remote.close c1;
        let c2 = Remote.connect_unix ~namespace:"tenant" path in
        let r = batch_b c2 in
        Remote.close c2;
        r)
  in
  (* Disk-backed: same ops, but the daemon restarts between connections. *)
  let data_dir = fresh_data_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf data_dir)
    (fun () ->
      with_daemon ~data_dir:(Some data_dir) (fun path ->
          let c1 = Remote.connect_unix ~namespace:"tenant" path in
          batch_a c1;
          Remote.close c1);
      let recovered =
        with_daemon ~data_dir:(Some data_dir) (fun path ->
            let c2 = Remote.connect_unix ~namespace:"tenant" path in
            let r = batch_b c2 in
            Remote.close c2;
            r)
      in
      check "digests and ledger survive restart" (recovered = reference));
  Printf.printf "fdserved selftest (persistence): OK\n%!"

(* Dynamic-session smoke test: a streaming Ex-ORAM session (Begin,
   pipelined inserts, a delete) interrupted by a daemon restart
   mid-update-stream, against an uninterrupted in-memory daemon.  The
   concluding Revalidate's FD statuses, engine trace digests and
   per-verb counters must be bit-identical — the restart rehydrates the
   session by replaying its journaled update history. *)
let selftest_dynamic () =
  let open Servsim in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("selftest-dynamic: " ^ m)) fmt in
  let check name cond = if not cond then fail "%s" name in
  let row ints =
    Dynserve.encode_row (Array.of_list (List.map (fun i -> Relation.Value.Int i) ints))
  in
  let batch_a conn =
    let r0 =
      Remote.begin_dynamic conn ~capacity:64 ~seed:11L ~cols:3
        (List.map row [ [ 1; 10; 100 ]; [ 1; 10; 200 ]; [ 2; 20; 100 ]; [ 3; 20; 200 ] ])
    in
    check "initial FDs all valid" (List.for_all (fun s -> s.Wire.fd_valid) r0.Wire.fds);
    check "pipelined inserts assign sequential ids"
      (Remote.insert_rows conn [ row [ 2; 3; 1 ]; row [ 3; 1; 1 ] ] = [ 4; 5 ]);
    Remote.delete_row conn ~id:2
  in
  let batch_b conn =
    check "insert after restart" (Remote.insert_rows conn [ row [ 9; 9; 9 ] ] = [ 6 ]);
    let r = Remote.revalidate conn in
    let st = Remote.stats conn in
    (r, st.Wire.inserts, st.Wire.deletes, st.Wire.revalidates)
  in
  let reference =
    with_daemon ~data_dir:None (fun path ->
        let c1 = Remote.connect_unix ~namespace:"dyn" ~depth:8 path in
        batch_a c1;
        Remote.close c1;
        let c2 = Remote.connect_unix ~namespace:"dyn" path in
        let r = batch_b c2 in
        Remote.close c2;
        r)
  in
  let data_dir = fresh_data_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf data_dir)
    (fun () ->
      with_daemon ~data_dir:(Some data_dir) (fun path ->
          let c1 = Remote.connect_unix ~namespace:"dyn" ~depth:8 path in
          batch_a c1;
          Remote.close c1);
      let recovered =
        with_daemon ~data_dir:(Some data_dir) (fun path ->
            let c2 = Remote.connect_unix ~namespace:"dyn" path in
            let r = batch_b c2 in
            Remote.close c2;
            r)
      in
      check "dynamic session survives restart bit-identically" (recovered = reference));
  Printf.printf "fdserved selftest (dynamic sessions): OK\n%!"

let selftest () =
  selftest_serve ();
  selftest_persist ();
  selftest_dynamic ();
  `Ok ()

let run unix_path tcp max_conns idle_timeout drain_grace data_dir max_resident
    verbose do_selftest =
  try
    if do_selftest then selftest ()
    else if unix_path = None && tcp = None then
      `Error (true, "need at least one of --unix / --tcp (or --selftest)")
    else
      serve unix_path tcp max_conns idle_timeout drain_grace data_dir max_resident verbose
  with
  | Failure msg | Invalid_argument msg -> `Error (false, msg)
  | Unix.Unix_error (e, fn, arg) ->
      `Error (false, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))

let cmd =
  let unix_path =
    Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH"
         ~doc:"Serve on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Serve on TCP at $(docv) (port 0 picks an ephemeral port).")
  in
  let max_conns =
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N"
         ~doc:"Reject connections beyond $(docv) concurrent clients.")
  in
  let idle_timeout =
    Arg.(value & opt float 0. & info [ "idle-timeout" ] ~docv:"SECONDS"
         ~doc:"Close connections idle for more than $(docv) seconds (0 disables).")
  in
  let drain_grace =
    Arg.(value & opt float 5. & info [ "drain-grace" ] ~docv:"SECONDS"
         ~doc:"Keep serving live connections for up to $(docv) seconds after SIGTERM.")
  in
  let data_dir =
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"PATH"
         ~doc:"Persist tenant state (snapshot + write-ahead journal per namespace) under \
               $(docv); tenants survive daemon restarts with bit-identical digests and \
               ledgers.  Without it, tenant state is in-memory only.")
  in
  let max_resident =
    Arg.(value & opt int 0 & info [ "max-resident" ] ~docv:"N"
         ~doc:"With --data-dir: keep at most $(docv) tenants in memory daemon-wide, \
               LRU-evicting cold ones to disk (0 disables eviction).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log connection events.") in
  let do_selftest =
    Arg.(value & flag & info [ "selftest" ]
         ~doc:"Run a loopback smoke test (daemon + two clients) and exit.")
  in
  let info_ =
    Cmd.info "fdserved" ~doc:"Multi-tenant oblivious block-service daemon"
  in
  Cmd.v info_
    Term.(ret (const run $ unix_path $ tcp $ max_conns $ idle_timeout $ drain_grace
               $ data_dir $ max_resident
               $ verbose $ do_selftest))

let () =
  (* Link the dynamic-FD engine into the request handler: without this
     the daemon serves v5 dynamic verbs with a clean "unavailable"
     error instead of a session. *)
  Dynserve.install ();
  exit (Cmd.eval cmd)
