(* Durable-store churn harness: the disk-backed daemon serving a tenant
   working set 10x its resident cache, so nearly every [Hello] is a cold
   attach — snapshot the LRU victim out, rehydrate the newcomer from its
   snapshot + journal.  This is the cost model of the outsourced setting
   with many clients: the server keeps hot sessions in memory and pages
   cold ciphertext stores to disk.

   The daemon runs in-process (one serving loop, in a spawned domain)
   because the measured work — segment framing, snapshot writes,
   recovery replay — is server-side disk traffic; the socket hop is kept
   so the request path is the production one.

   Emits BENCH_store.json (schema v3): steady-state ops/s, per-op
   service latency percentiles, and the cold-attach (rehydration)
   latency distribution, each the median, quartiles and extremes over
   [repeats] runs (5; 1 in a smoke run) of a fresh daemon and data
   directory, stamped with [git_rev] and [host_cores]. *)

let block_len = 64
let block = String.make block_len '\xCD'

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let tmp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let ns_of i = Printf.sprintf "store-tenant-%03d" i

let expect_ok = function
  | Servsim.Wire.Ok -> ()
  | Servsim.Wire.Error e -> failwith e
  | _ -> failwith "unexpected response"

(* Seed every tenant's store once: [blocks] one-slot puts through a fresh
   session.  With the cap at [max_resident] this already runs the
   eviction path [tenants - max_resident] times. *)
let seed ~path ~tenants ~blocks =
  for i = 0 to tenants - 1 do
    let conn = Servsim.Remote.connect_unix ~namespace:(ns_of i) path in
    expect_ok (Servsim.Remote.call conn (Servsim.Wire.Create_store ("s", blocks)));
    for b = 0 to blocks - 1 do
      ignore (Servsim.Remote.exchange conn ~puts:[ ("s", [ (b, block) ]) ] ~gets:[])
    done;
    Servsim.Remote.close conn
  done

(* One cold visit: connect (forcing rehydration — the round-robin order
   guarantees this tenant left the cache [tenants - 1] attaches ago),
   then a short burst of one-slot read/write ops.  Returns the attach latency and
   the per-op latencies. *)
let visit ~path ~ns ~blocks ~ops_per_visit =
  let a0 = Unix.gettimeofday () in
  let conn = Servsim.Remote.connect_unix ~namespace:ns path in
  let attach_s = Unix.gettimeofday () -. a0 in
  let lats = Array.make ops_per_visit 0. in
  for o = 0 to ops_per_visit - 1 do
    let u0 = Unix.gettimeofday () in
    (match
       Servsim.Remote.call conn
         (if o land 1 = 0 then
            Servsim.Wire.Exchange { puts = []; gets = [ ("s", [ o mod blocks ]) ] }
          else Servsim.Wire.Exchange { puts = [ ("s", [ (o mod blocks, block) ]) ]; gets = [] })
     with
    | Servsim.Wire.Values ([] | [ _ ]) -> ()
    | _ -> failwith "unexpected response");
    lats.(o) <- Unix.gettimeofday () -. u0
  done;
  Servsim.Remote.close conn;
  (attach_s, Array.to_list lats)

(* One run: a fresh data directory and daemon, seeded, then [rounds]
   cold visits to every tenant.  Returns ops/s and the op and attach
   latency percentiles. *)
let once ~max_resident ~tenants ~blocks ~rounds ~ops_per_visit =
  let data_dir = tmp_dir "sfdd-bench-store" in
  Fun.protect
    ~finally:(fun () -> rm_rf data_dir)
    (fun () ->
      let attach_lats = ref [] and op_lats = ref [] in
      let wall =
        Service.Daemon.with_local
          ~config:
            { Service.Daemon.default_config with
              max_conns = 16;
              data_dir = Some data_dir;
              max_resident }
          (fun path _ ->
            seed ~path ~tenants ~blocks;
            let t0 = Unix.gettimeofday () in
            for _round = 1 to rounds do
              for i = 0 to tenants - 1 do
                let attach_s, lats =
                  visit ~path ~ns:(ns_of i) ~blocks ~ops_per_visit
                in
                attach_lats := attach_s :: !attach_lats;
                op_lats := List.rev_append lats !op_lats
              done
            done;
            Unix.gettimeofday () -. t0)
      in
      let total_ops = rounds * tenants * ops_per_visit in
      ( float_of_int total_ops /. wall,
        Service.Metrics.percentiles !op_lats,
        Service.Metrics.percentiles !attach_lats ))

let run (opts : Bench_util.opts) =
  Bench_util.header "STORE: disk-backed tenants, working set 10x resident cache";
  (* Read before a full run rewrites BENCH_store.json, which would mark
     the checkout dirty. *)
  let git_rev = Bench_util.git_rev () in
  let max_resident = if opts.full then 16 else 4 in
  let tenants = 10 * max_resident in
  let blocks = if opts.full then 64 else 32 in
  let rounds = if opts.full then 5 else 2 in
  let ops_per_visit = 16 in
  let repeats = if opts.smoke then 1 else 5 in
  let runs =
    List.init repeats (fun _ -> once ~max_resident ~tenants ~blocks ~rounds ~ops_per_visit)
  in
  let col f = List.map f runs in
  let us f = col (fun r -> f r *. 1e6) in
  let rates = col (fun (r, _, _) -> r)
  and p50 = us (fun (_, (p, _, _), _) -> p)
  and p95 = us (fun (_, (_, p, _), _) -> p)
  and p99 = us (fun (_, (_, _, p), _) -> p)
  and a50 = us (fun (_, _, (p, _, _)) -> p)
  and a95 = us (fun (_, _, (_, p, _)) -> p)
  and a99 = us (fun (_, _, (_, _, p)) -> p) in
  let med xs = Stats.Summary.median (Array.of_list xs) in
  Printf.printf
    "  %d tenants / %d resident x %d rounds, median of %d run(s): %8.0f ops/s   op p50 %5.0f \
     us  p99 %5.0f us   cold attach p50 %6.0f us  p99 %6.0f us\n\
     %!"
    tenants max_resident rounds repeats (med rates) (med p50) (med p99) (med a50) (med a99);
  let spread = Bench_util.json_spread ~fmt:(Printf.sprintf "%.0f") in
  Bench_util.write_bench_json opts "BENCH_store.json" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"sfdd-bench-store/3\",\n\
        \  \"smoke\": %b,\n\
        \  \"git_rev\": %S,\n\
        \  \"host_cores\": %d,\n\
        \  \"transport\": \"unix-domain socket\",\n\
        \  \"repeats\": %d,\n\
        \  \"tenants\": %d,\n\
        \  \"max_resident\": %d,\n\
        \  \"blocks_per_tenant\": %d,\n\
        \  \"block_bytes\": %d,\n\
        \  \"rounds\": %d,\n\
        \  \"ops_per_visit\": %d,\n\
        \  \"ops_per_s\": %s,\n\
        \  \"op_p50_us\": %s,\n\
        \  \"op_p95_us\": %s,\n\
        \  \"op_p99_us\": %s,\n\
        \  \"cold_attach_p50_us\": %s,\n\
        \  \"cold_attach_p95_us\": %s,\n\
        \  \"cold_attach_p99_us\": %s\n\
         }\n"
        opts.smoke git_rev
        (Domain.recommended_domain_count ())
        repeats tenants max_resident blocks block_len rounds ops_per_visit (spread rates)
        (spread p50) (spread p95) (spread p99) (spread a50) (spread a95) (spread a99))
