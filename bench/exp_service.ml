(* Service load harness: throughput and latency of the multi-tenant
   daemon under concurrent clients and client pipelining depths, plus
   one client beside a crowd of idle connections.

   The daemon and every load client run as separate OS processes so the
   measurement crosses real Unix-domain sockets and the daemon's event
   loop, not in-process function calls.  OCaml 5 forbids [Unix.fork]
   once domains have run, so children are [Unix.create_process] re-execs
   of this very benchmark binary with hidden argv modes
   ([service-daemon] / [service-client]) dispatched in [main] before
   normal argument parsing.

   Emits BENCH_service.json (schema v6): ops/s, service-latency
   percentiles and daemon-side syscalls-per-op for each (client count x
   pipeline depth) point, and for one client at depth 1 while the
   harness holds [idle_conns] handshaken connections open and silent.
   That last point prices poll(2)'s scan of every registered
   descriptor on each wait (DESIGN.md §14).  Syscalls-per-op comes from a
   probe connection reading the daemon's loop counters (read(2) +
   write(2) attempts) before and after each round — the direct measure
   of what response coalescing and client pipelining batch away.  Each
   point runs [repeats] times (5; 1 in a smoke run) and every figure is
   written as its median, quartiles and extremes over those rounds.
   [host_cores] and [git_rev] are recorded alongside: the daemon serves
   on one loop, so it is the client processes that extra cores help
   (EXPERIMENTS.md). *)

let block = String.make 64 '\xAB'

(* Idle connections held open for the idle point (16 in a smoke run). *)
let idle_full = 1000

(* {2 Child: daemon} *)

let daemon_main path =
  let daemon =
    Service.Daemon.create
      { Service.Daemon.default_config with unix_path = Some path; max_conns = idle_full + 64 }
  in
  Service.Daemon.install_stop_signals daemon;
  Service.Daemon.run daemon;
  0

(* {2 Child: load client}

   Connects into its own namespace at the given pipelining depth,
   performs [ops] one-slot write/read exchanges (puts-only and
   gets-only [Exchange] frames, alternating) keeping up to [depth] frames in
   flight (depth 1 degrades to the classic strict request/response
   loop), records per-op send-to-response latency, asserts the
   server-side per-session ledger agrees with its own frame counter, and
   writes "<elapsed_s>\n<lat_us> <lat_us> ...\n" to [out]. *)

let client_main path namespace ops depth out =
  let open Servsim in
  (* The daemon may still be binding its socket: retry briefly. *)
  let rec connect tries =
    match Remote.connect_unix ~namespace ~depth path with
    | conn -> conn
    | exception (Unix.Unix_error _ | Wire.Protocol_error _) when tries > 0 ->
        Unix.sleepf 0.05;
        connect (tries - 1)
  in
  let conn = connect 100 in
  let expect_ok = function
    | Wire.Ok -> ()
    | r -> failwith (match r with Wire.Error e -> e | _ -> "unexpected response")
  in
  (* Tenant state persists across connections; start each round clean. *)
  expect_ok (Remote.call conn (Wire.Drop_store "bench"));
  expect_ok (Remote.call conn (Wire.Create_store ("bench", 64)));
  let req i =
    if i land 1 = 0 then Wire.Exchange { puts = [ ("bench", [ (i mod 64, block) ]) ]; gets = [] }
    else Wire.Exchange { puts = []; gets = [ ("bench", [ i mod 64 ]) ] }
  in
  let lats = Array.make ops 0. in
  let sent_at = Array.make ops 0. in
  let t0 = Unix.gettimeofday () in
  let sent = ref 0 and recvd = ref 0 in
  while !recvd < ops do
    while !sent < ops && !sent - !recvd < depth do
      sent_at.(!sent) <- Unix.gettimeofday ();
      Remote.send conn (req !sent);
      incr sent
    done;
    (match Remote.recv conn with
    | Wire.Values ([] | [ _ ]) -> ()
    | Wire.Error e -> failwith e
    | _ -> failwith "unexpected response");
    lats.(!recvd) <- Unix.gettimeofday () -. sent_at.(!recvd);
    incr recvd
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats = Remote.stats conn in
  if stats.Wire.frames <> Remote.frames conn then
    failwith
      (Printf.sprintf "ledger mismatch: server %d, client %d" stats.Wire.frames
         (Remote.frames conn));
  Remote.close conn;
  let oc = open_out out in
  Printf.fprintf oc "%.6f\n" elapsed;
  Array.iter (fun l -> Printf.fprintf oc "%d " (int_of_float (l *. 1e6))) lats;
  output_char oc '\n';
  close_out oc;
  0

(* {2 Parent: orchestration} *)

let spawn args =
  Unix.create_process Sys.executable_name
    (Array.append [| Sys.executable_name |] args)
    Unix.stdin Unix.stdout Unix.stderr

let wait_exit pid what =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "%s exited %d" what c)
  | Unix.WSIGNALED s -> failwith (Printf.sprintf "%s killed by signal %d" what s)
  | Unix.WSTOPPED _ -> failwith (what ^ " stopped")

let read_client_file file =
  let ic = open_in file in
  let elapsed = float_of_string (String.trim (input_line ic)) in
  let lats =
    input_line ic |> String.split_on_char ' '
    |> List.filter_map (fun s -> if s = "" then None else Some (float_of_string s))
  in
  close_in ic;
  (elapsed, lats)

(* Daemon-side read(2)+write(2) attempts, via the loop counters a Stats
   reply carries.  The probe's own two Stats exchanges cost a handful of
   syscalls; against thousands of measured ops that noise is below the
   reporting precision. *)
let loop_syscalls probe =
  let s = Servsim.Remote.stats probe in
  s.Servsim.Wire.loop_reads + s.Servsim.Wire.loop_writes

let run_round ~path ~probe ~clients ~depth ~idle ~ops ~rep =
  let outs =
    List.init clients (fun i -> Filename.temp_file (Printf.sprintf "svc%d" i) ".lat")
  in
  let sys0 = loop_syscalls probe in
  (* One fresh namespace per (point, repeat, client): the server's cost
     ledger is per-tenant and outlives connections, and each client
     asserts it against its own per-connection frame counter — exact
     only on a tenant's first connection. *)
  let pids =
    List.mapi
      (fun i out ->
        spawn
          [|
            "service-client"; path;
            Printf.sprintf "c%02d-d%02d-i%04d-r%d-tenant-%02d" clients depth idle rep i;
            string_of_int ops; string_of_int depth; out;
          |])
      outs
  in
  List.iteri (fun i pid -> wait_exit pid (Printf.sprintf "client %d" i)) pids;
  let sys1 = loop_syscalls probe in
  let per_client = List.map read_client_file outs in
  List.iter Sys.remove outs;
  let wall = List.fold_left (fun m (e, _) -> max m e) 0. per_client in
  let lats = List.concat_map snd per_client in
  let p50, p95, p99 = Service.Metrics.percentiles lats in
  let total_ops = clients * ops in
  let syscalls_per_op = float_of_int (sys1 - sys0) /. float_of_int total_ops in
  (float_of_int total_ops /. wall, p50, p95, p99, syscalls_per_op)

(* Read exactly [len] bytes, or fail on end of file. *)
let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off < len then
      match Unix.read fd buf off (len - off) with
      | 0 -> failwith "idle connection closed during its handshake"
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0;
  Bytes.to_string buf

(* One idle connection: version byte and [Hello], checked against the
   daemon's echoed version and [Ok], then silence.  Raw descriptors
   rather than [Remote] connections, whose two 64 KiB channel buffers
   each would cost the harness 128 MB at [idle_full]. *)
let open_idle path =
  let framed write msg =
    let b = Buffer.create 32 in
    Buffer.add_char b (Char.chr Servsim.Wire.protocol_version);
    write (Servsim.Wire.buffer_sink b) msg;
    Buffer.contents b
  in
  let hello = framed Servsim.Wire.write_request_sink (Servsim.Wire.Hello "idle") in
  let reply = framed Servsim.Wire.write_response_sink Servsim.Wire.Ok in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  ignore (Unix.write_substring fd hello 0 (String.length hello));
  if read_exact fd (String.length reply) <> reply then failwith "idle connection refused";
  fd

(* One daemon process; the clients x depth sweep runs against it, then
   the idle point, then SIGTERM — the graceful drain is part of what
   the harness exercises.  The daemon's loop counters are daemon-wide,
   so the probe's before/after deltas cover every connection. *)
let sweep ~counts ~depths ~idle ~ops ~repeats =
  let path = Filename.temp_file "fdserved-bench" ".sock" in
  Sys.remove path;
  let daemon_pid = spawn [| "service-daemon"; path |] in
  let rec await tries =
    if not (Sys.file_exists path) then
      if tries = 0 then failwith "daemon did not come up"
      else begin
        Unix.sleepf 0.05;
        await (tries - 1)
      end
  in
  await 100;
  Fun.protect
    ~finally:(fun () ->
      Unix.kill daemon_pid Sys.sigterm;
      wait_exit daemon_pid "daemon")
    (fun () ->
      let probe = Servsim.Remote.connect_unix ~namespace:"probe" path in
      Fun.protect
        ~finally:(fun () -> Servsim.Remote.close probe)
        (fun () ->
          let point ~clients ~depth ~idle =
            let rounds =
              List.init repeats (fun rep -> run_round ~path ~probe ~clients ~depth ~idle ~ops ~rep)
            in
            let col f = List.map f rounds in
            let ops_s = col (fun (x, _, _, _, _) -> x)
            and p50 = col (fun (_, x, _, _, _) -> x)
            and p95 = col (fun (_, _, x, _, _) -> x)
            and p99 = col (fun (_, _, _, x, _) -> x)
            and spo = col (fun (_, _, _, _, x) -> x) in
            let med xs = Stats.Summary.median (Array.of_list xs) in
            Printf.printf
              "  %2d client(s) x depth %2d + %4d idle x %d ops: %8.0f ops/s   \
               p50 %5.0f us   p99 %5.0f us   %5.2f syscalls/op\n%!"
              clients depth idle ops (med ops_s) (med p50) (med p99) (med spo);
            (clients, depth, idle, ops_s, p50, p95, p99, spo)
          in
          let busy =
            List.concat_map
              (fun clients -> List.map (fun depth -> point ~clients ~depth ~idle:0) depths)
              counts
          in
          let idle_fds = List.init idle (fun _ -> open_idle path) in
          Fun.protect
            ~finally:(fun () -> List.iter Unix.close idle_fds)
            (fun () -> busy @ [ point ~clients:1 ~depth:1 ~idle ])))

let run (opts : Bench_util.opts) =
  Bench_util.header "SERVICE: multi-tenant daemon under concurrent load";
  (* Read before a full run rewrites BENCH_service.json, which would
     mark the checkout dirty. *)
  let git_rev = Bench_util.git_rev () in
  let ops = if opts.smoke then 200 else 2000 in
  let counts = if opts.full then [ 1; 2; 4; 8; 16 ] else if opts.smoke then [ 1; 2 ] else [ 1; 4; 16 ] in
  let depths = [ 1; 8 ] in
  let idle = if opts.smoke then 16 else idle_full in
  let repeats = if opts.smoke then 1 else 5 in
  Printf.printf "  each point: median of %d round(s)\n%!" repeats;
  let series = sweep ~counts ~depths ~idle ~ops ~repeats in
  let spread = Bench_util.json_spread ~fmt:(Printf.sprintf "%.0f") in
  Bench_util.write_bench_json opts "BENCH_service.json" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"sfdd-bench-service/6\",\n\
        \  \"smoke\": %b,\n\
        \  \"git_rev\": %S,\n\
        \  \"transport\": \"unix-domain socket\",\n\
        \  \"host_cores\": %d,\n\
        \  \"domains\": 1,\n\
        \  \"ops_per_client\": %d,\n\
        \  \"repeats\": %d,\n\
        \  \"series\": [\n"
        opts.smoke git_rev
        (Domain.recommended_domain_count ())
        ops repeats;
      List.iteri
        (fun i (clients, depth, idle, ops_s, p50, p95, p99, spo) ->
          Printf.fprintf oc
            "    { \"clients\": %d, \"pipeline_depth\": %d, \"idle_conns\": %d,\n\
            \      \"ops_per_s\": %s,\n\
            \      \"p50_us\": %s,\n\
            \      \"p95_us\": %s,\n\
            \      \"p99_us\": %s,\n\
            \      \"syscalls_per_op\": %s }%s\n"
            clients depth idle (spread ops_s) (spread p50) (spread p95) (spread p99)
            (Bench_util.json_spread ~fmt:(Printf.sprintf "%.3f") spo)
            (if i = List.length series - 1 then "" else ","))
        series;
      Printf.fprintf oc "  ]\n}\n")
