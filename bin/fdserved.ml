(* fdserved: the multi-tenant oblivious block-service daemon.

     fdserved --unix /tmp/fdd.sock
     fdserved --tcp 127.0.0.1:7144 --max-conns 128 --idle-timeout 60 *)

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

let run unix_path tcp max_conns idle_timeout drain_grace data_dir max_resident verbose =
  try
    if unix_path = None && tcp = None then
      `Error (true, "need at least one of --unix / --tcp")
    else if max_resident > 0 && data_dir = None then
      `Error (true, "--max-resident needs --data-dir: without it no tenant is ever evicted")
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
               LRU-evicting cold ones to disk (0 disables eviction).  A positive \
               $(docv) without --data-dir is a usage error.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log connection events.") in
  let info_ =
    Cmd.info "fdserved" ~doc:"Multi-tenant oblivious block-service daemon"
  in
  Cmd.v info_
    Term.(ret (const run $ unix_path $ tcp $ max_conns $ idle_timeout $ drain_grace
               $ data_dir $ max_resident $ verbose))

let () = exit (Cmd.eval cmd)
