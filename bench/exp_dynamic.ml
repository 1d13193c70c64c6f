(* Streaming dynamic-FD load harness: many tenants drive interleaved
   Insert_row / Delete_row / Revalidate streams against one daemon, the
   inserts pipelined up to the connection's depth.  Halfway through the
   run the daemon is stopped and restarted on the same --data-dir, so
   the second half exercises rehydration of every dynamic session from
   its persisted update history.

   Every tenant's stream is deterministic (seeded), so after the drain
   the harness replays the identical operation sequence through
   [Core.Dynamic] directly and requires the wire run's final FD
   statuses AND trace digests to match bit-for-bit — the service path
   must be indistinguishable from a one-shot library run, restart
   included.

   A separate microbenchmark times one full [Dynamic.start] discovery
   against the average incremental insert/delete, the §V motivation for
   maintaining the lattice online instead of re-running Algorithm 1.

   Emits BENCH_dynamic.json (schema v3): updates/s across the fleet,
   revalidate latency percentiles, parity verdict, and the
   incremental-vs-rerun speedup, each timing the median of repeated
   runs with its quartiles and extremes, stamped with [git_rev] and
   [host_cores]. *)

open Relation

let cols = 3
let domain = 16

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

let with_daemon ~data_dir f =
  Service.Daemon.with_local
    ~config:{ Service.Daemon.default_config with max_conns = 32; data_dir = Some data_dir }
    (fun path _ -> f path)

(* One operation of a tenant's stream.  [Del] carries a raw draw that
   both runners reduce mod the current live count, so the choice of
   victim is a pure function of the stream position. *)
type op = Ins of int array | Del of int | Reval

let gen_ops ~seed ~count =
  let rng = Crypto.Rng.create seed in
  List.init count (fun _ ->
      let r = Crypto.Rng.int rng 10 in
      if r < 6 then Ins (Array.init cols (fun _ -> 1 + Crypto.Rng.int rng domain))
      else if r < 9 then Del (Crypto.Rng.int rng 0x3FFFFFFF)
      else Reval)

let value_row a = Array.map (fun i -> Value.Int i) a
let wire_row a = Dynserve.encode_row (value_row a)

let table_wire_rows table =
  List.init (Table.rows table) (fun r -> Dynserve.encode_row (Table.row table r))

(* Deterministic victim selection shared by both runners. *)
let pick_victim ids k =
  match ids with
  | [] -> None
  | live ->
      let i = k mod List.length live in
      Some (i, List.nth live i)

let drop_nth i l = List.filteri (fun j _ -> j <> i) l

(* The one-shot library run of the same stream: final revalidate plus
   the engine trace digests, in the exact shape [Wire.Fds_reply]
   carries them. *)
let library_final ~seed ~capacity ~table ops =
  let d = Core.Dynamic.start ~seed ~capacity table in
  let ids = ref (List.init (Table.rows table) Fun.id) in
  List.iter
    (fun op ->
      match op with
      | Ins a -> ids := !ids @ [ Core.Dynamic.insert d (value_row a) ]
      | Del k -> (
          match pick_victim !ids k with
          | None -> ()
          | Some (i, id) ->
              Core.Dynamic.delete d ~id;
              ids := drop_nth i !ids)
      | Reval -> ignore (Core.Dynamic.revalidate d))
    ops;
  let reval = Core.Dynamic.revalidate d in
  let tr = Core.Session.trace (Core.Dynamic.session d) in
  let fds =
    List.map
      (fun (fd, ok) -> (Int64.of_int (Attrset.to_int fd.Fdbase.Fd.lhs), fd.Fdbase.Fd.rhs, ok))
      reval
  in
  let digests =
    (Servsim.Trace.full_digest tr, Servsim.Trace.shape_digest tr, Servsim.Trace.count tr)
  in
  Core.Dynamic.release d;
  (fds, digests)

type tenant = {
  ns : string;
  seed : int;
  capacity : int;
  table : Table.t;
  ops : op list; (* the full stream, for the parity replay *)
  mutable pending : op list;
  mutable ids : int list;
  mutable conn : Servsim.Remote.t option;
  mutable begun : bool;
  mutable updates : int; (* inserts + deletes actually issued *)
  mutable reval_lats : float list;
}

let connect ~depth path t =
  let conn = Servsim.Remote.connect_unix ~namespace:t.ns ~depth path in
  t.conn <- Some conn;
  if not t.begun then begin
    ignore
      (Servsim.Remote.begin_dynamic conn ~capacity:t.capacity ~seed:(Int64.of_int t.seed)
         ~cols (table_wire_rows t.table));
    t.begun <- true
  end

let close_all ts =
  Array.iter
    (fun t ->
      match t.conn with
      | Some c ->
          Servsim.Remote.close c;
          t.conn <- None
      | None -> ())
    ts

(* Serve up to [budget] ops of [t]'s pending stream.  Runs of
   consecutive inserts go out as one pipelined burst. *)
let step t budget =
  let conn = Option.get t.conn in
  let rec go budget =
    if budget > 0 then
      match t.pending with
      | [] -> ()
      | Ins _ :: _ ->
          let rec take acc k ops =
            match ops with
            | Ins a :: tl when k > 0 -> take (a :: acc) (k - 1) tl
            | _ -> (List.rev acc, ops)
          in
          let rows, rest = take [] budget t.pending in
          t.pending <- rest;
          let ids = Servsim.Remote.insert_rows conn (List.map wire_row rows) in
          t.ids <- t.ids @ ids;
          t.updates <- t.updates + List.length rows;
          go (budget - List.length rows)
      | Del k :: tl ->
          t.pending <- tl;
          (match pick_victim t.ids k with
          | None -> ()
          | Some (i, id) ->
              Servsim.Remote.delete_row conn ~id;
              t.ids <- drop_nth i t.ids;
              t.updates <- t.updates + 1);
          go (budget - 1)
      | Reval :: tl ->
          t.pending <- tl;
          let u0 = Unix.gettimeofday () in
          ignore (Servsim.Remote.revalidate conn);
          t.reval_lats <- (Unix.gettimeofday () -. u0) :: t.reval_lats;
          go (budget - 1)
  in
  go budget

(* Round-robin the fleet in [chunk]-op slices until every pending
   stream drains — the interleaving the acceptance criterion asks for. *)
let drain ts ~chunk =
  let busy = ref true in
  while !busy do
    busy := false;
    Array.iter
      (fun t ->
        if t.pending <> [] then begin
          step t chunk;
          if t.pending <> [] then busy := true
        end)
      ts
  done

(* Full re-discovery vs incremental maintenance at n rows: the cost a
   dynamic session avoids on every update. *)
let speedup ~n =
  let table = Datasets.Rnd.generate_with_domain ~seed:9 ~rows:n ~cols ~domain () in
  let t0 = Unix.gettimeofday () in
  let d = Core.Dynamic.start ~seed:5 ~capacity:(n + 64) table in
  let full_s = Unix.gettimeofday () -. t0 in
  let pairs = 16 in
  let t1 = Unix.gettimeofday () in
  for j = 0 to pairs - 1 do
    let row = Array.init cols (fun c -> Value.Int (1 + ((j + c) mod domain))) in
    let id = Core.Dynamic.insert d row in
    Core.Dynamic.delete d ~id
  done;
  let update_s = (Unix.gettimeofday () -. t1) /. float_of_int (2 * pairs) in
  Core.Dynamic.release d;
  (full_s, update_s)

(* One run of the fleet on a fresh data directory: [tenants] sessions
   served in two daemon lifetimes.  Returns the updates issued, the
   drain wall time, every revalidate latency and each tenant's final
   revalidate, as [library_final] gives it. *)
let fleet ~tenants ~ops_per_tenant ~initial_rows ~depth ~chunk =
  let ts =
    Array.init tenants (fun i ->
        let table =
          Datasets.Rnd.generate_with_domain ~seed:(100 + i) ~rows:initial_rows ~cols ~domain ()
        in
        {
          ns = Printf.sprintf "dyn-%02d" i;
          seed = 7000 + i;
          capacity = initial_rows + ops_per_tenant + 16;
          table;
          ops = gen_ops ~seed:(500 + i) ~count:ops_per_tenant;
          pending = [];
          ids = List.init initial_rows Fun.id;
          conn = None;
          begun = false;
          updates = 0;
          reval_lats = [];
        })
  in
  let split_at n l = (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l) in
  let finals = Array.make tenants ([], (0L, 0L, 0)) in
  let data_dir = tmp_dir "sfdd-bench-dyn" in
  let wall = ref 0.0 in
  Fun.protect
    ~finally:(fun () -> rm_rf data_dir)
    (fun () ->
      (* Phase 1: Begin every session, serve the first half of every
         stream, then stop the daemon mid-run. *)
      with_daemon ~data_dir (fun path ->
          Array.iter
            (fun t ->
              t.pending <- fst (split_at (ops_per_tenant / 2) t.ops);
              connect ~depth path t)
            ts;
          let t0 = Unix.gettimeofday () in
          drain ts ~chunk;
          wall := !wall +. (Unix.gettimeofday () -. t0);
          close_all ts);
      (* Phase 2: a fresh daemon on the same data-dir rehydrates every
         session from its journaled update history; the streams
         continue where they left off. *)
      with_daemon ~data_dir (fun path ->
          Array.iter
            (fun t ->
              t.pending <- snd (split_at (ops_per_tenant / 2) t.ops);
              connect ~depth path t)
            ts;
          let t0 = Unix.gettimeofday () in
          drain ts ~chunk;
          Array.iteri
            (fun i t ->
              let r = Servsim.Remote.revalidate (Option.get t.conn) in
              finals.(i) <-
                ( List.map
                    (fun s -> (s.Servsim.Wire.fd_lhs, s.Servsim.Wire.fd_rhs, s.Servsim.Wire.fd_valid))
                    r.Servsim.Wire.fds,
                  (r.Servsim.Wire.dyn_full, r.Servsim.Wire.dyn_shape, r.Servsim.Wire.dyn_events) ))
            ts;
          wall := !wall +. (Unix.gettimeofday () -. t0);
          close_all ts));
  let total_updates = Array.fold_left (fun acc t -> acc + t.updates) 0 ts in
  let reval_lats = Array.fold_left (fun acc t -> List.rev_append t.reval_lats acc) [] ts in
  (ts, total_updates, !wall, reval_lats, finals)

let run (opts : Bench_util.opts) =
  Bench_util.header "DYNAMIC: streaming Ex-ORAM insert/delete over the wire";
  (* Read before a full run rewrites BENCH_dynamic.json, which would mark
     the checkout dirty. *)
  let git_rev = Bench_util.git_rev () in
  let tenants = if opts.smoke then 2 else 8 in
  let ops_per_tenant = if opts.smoke then 48 else if opts.full then 2000 else 1000 in
  let initial_rows = if opts.smoke then 8 else 24 in
  let depth = 8 in
  let chunk = 32 in
  let reval_n = if opts.smoke then 128 else if opts.full then 2048 else 1024 in
  (* The host's speed drifts across minutes, so every timing is the
     median of [repeats] fleet runs, with its quartiles. *)
  let repeats = if opts.smoke then 2 else 5 in
  let runs =
    List.init repeats (fun _ -> fleet ~tenants ~ops_per_tenant ~initial_rows ~depth ~chunk)
  in
  (* Parity: replay each stream through Core.Dynamic directly and
     compare every run's FD statuses and trace digests bit-for-bit. *)
  let ts, total_updates, _, _, _ = List.hd runs in
  let lib =
    Array.map (fun t -> library_final ~seed:t.seed ~capacity:t.capacity ~table:t.table t.ops) ts
  in
  let parity = ref true in
  List.iter
    (fun (_, _, _, _, finals) ->
      Array.iteri
        (fun i t ->
          if finals.(i) <> lib.(i) then begin
            parity := false;
            Printf.printf "  PARITY FAIL %s: wire run diverged from library run\n%!" t.ns
          end)
        ts)
    runs;
  if not !parity then failwith "dynamic: wire/library parity failed";
  let rates = List.map (fun (_, u, wall, _, _) -> float_of_int u /. wall) runs in
  let pcts = List.map (fun (_, _, _, lats, _) -> Service.Metrics.percentiles lats) runs in
  let p50 = List.map (fun (p, _, _) -> p) pcts
  and p95 = List.map (fun (_, p, _) -> p) pcts
  and p99 = List.map (fun (_, _, p) -> p) pcts in
  let med xs = Stats.Summary.median (Array.of_list xs) and us x = x *. 1e6 in
  let quartile xs q = Stats.Summary.quantile (Array.of_list xs) q in
  Printf.printf
    "  %d tenants x %d ops (pipelined depth %d, daemon restarted mid-stream), %d runs:\n\
    \    %8.0f updates/s [%.0f-%.0f]   revalidate p50 %6.0f us  p95 %6.0f us  p99 %6.0f us\n\
    \    parity: every tenant's final FDs + trace digests match the one-shot library run\n\
     %!"
    tenants ops_per_tenant depth repeats (med rates) (quartile rates 0.25)
    (quartile rates 0.75)
    (us (med p50)) (us (med p95)) (us (med p99));
  let speedups = List.init repeats (fun _ -> speedup ~n:reval_n) in
  let full_s = List.map fst speedups and update_s = List.map snd speedups in
  let ratios = List.map (fun (f, u) -> f /. u) speedups in
  Printf.printf
    "  incremental vs re-discovery at n = %d: full run %s, one update %s  (%.0fx, medians of %d)\n%!"
    reval_n
    (Bench_util.pretty_time (med full_s))
    (Bench_util.pretty_time (med update_s))
    (med ratios) repeats;
  let spread_us xs = Bench_util.json_spread ~fmt:(Printf.sprintf "%.0f") (List.map us xs) in
  Bench_util.write_bench_json opts "BENCH_dynamic.json" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"sfdd-bench-dynamic/3\",\n\
        \  \"smoke\": %b,\n\
        \  \"git_rev\": %S,\n\
        \  \"host_cores\": %d,\n\
        \  \"transport\": \"unix-domain socket\",\n\
        \  \"repeats\": %d,\n\
        \  \"tenants\": %d,\n\
        \  \"ops_per_tenant\": %d,\n\
        \  \"pipeline_depth\": %d,\n\
        \  \"restart_mid_stream\": true,\n\
        \  \"updates_total\": %d,\n\
        \  \"updates_per_s\": %s,\n\
        \  \"revalidate_p50_us\": %s,\n\
        \  \"revalidate_p95_us\": %s,\n\
        \  \"revalidate_p99_us\": %s,\n\
        \  \"parity_vs_library\": %b,\n\
        \  \"rediscovery_n\": %d,\n\
        \  \"rediscovery_s\": %s,\n\
        \  \"update_s\": %s,\n\
        \  \"incremental_speedup\": %s\n\
         }\n"
        opts.smoke git_rev
        (Domain.recommended_domain_count ())
        repeats tenants ops_per_tenant depth total_updates
        (Bench_util.json_spread ~fmt:(Printf.sprintf "%.0f") rates)
        (spread_us p50) (spread_us p95) (spread_us p99) !parity reval_n
        (Bench_util.json_spread full_s) (Bench_util.json_spread update_s)
        (Bench_util.json_spread ~fmt:(Printf.sprintf "%.1f") ratios))
