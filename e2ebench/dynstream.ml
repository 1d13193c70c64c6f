(* The dyn-stream workload: one client streams updates to a dynamic FD
   session on a durable child daemon, in a closed loop (it needs each
   Row_id before it can delete that row).

   A repetition opens a fresh namespace, sends Begin_dynamic over the
   seeded table and then the seeded op stream.  After half of it the
   client disconnects, the daemon gets SIGTERM, a new one starts on the
   same data directory, and the stream resumes once the session is
   rehydrated.  The same Ex-ORAM layer as discovery serves writes here,
   plus the Store journal and its recovery.

   Correctness: every Begin_dynamic answers the plaintext TANE FDs;
   every repetition ends in the same statuses, digests and row ids; the
   final FD statuses equal direct validation on the final live table;
   and they, the statuses after recovery, the trace digests and the row
   ids equal a Core.Dynamic replay of the same stream in this process.
   The replay's cost ledger, equal to the daemon engine's by those
   digests, gives the stream's bytes, round trips and storage. *)

open Relation

type config = {
  seed : int;
  seconds : float;  (** measuring window for the repetitions *)
  rows : int;
  ops : int;  (** per repetition *)
  min_reps : int;
  warm_up : float;  (** seconds of repetitions run before measuring *)
  run_dir : string;
}

let now = Unix.gettimeofday

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc e -> acc + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let statuses (r : Servsim.Wire.dyn_fds) = List.map Dynserve.fd_of_status r.fds
let digests (r : Servsim.Wire.dyn_fds) = (r.dyn_full, r.dyn_shape, r.dyn_events)

type replay = {
  ops_s : float;
  mid : (Fdbase.Fd.t * bool) list;  (** statuses at the restart point *)
  final : (Fdbase.Fd.t * bool) list;
  final_digests : int64 * int64 * int;
  live : int list;
  ledger : Servsim.Cost.snapshot * Servsim.Cost.snapshot;  (** after start, at the end *)
  events : int;  (** block events of the stream *)
}

(* The library run of the same stream, with a Revalidate where the
   wire stream probes the restarted daemon. *)
let replay ~begin_seed ~capacity ~half table ops =
  let d = Core.Dynamic.start ~seed:begin_seed ~capacity table in
  let session = Core.Dynamic.session d in
  let cost = Core.Session.cost session and trace = Core.Session.trace session in
  Servsim.Cost.reset_peak cost;
  let c0 = Servsim.Cost.snapshot cost and e0 = Servsim.Trace.count trace in
  let live = Inputs.Live.create (Table.rows table) in
  let mid = ref [] in
  let t1 = now () in
  List.iteri
    (fun i op ->
      if i = half then mid := Core.Dynamic.revalidate d;
      match op with
      | Inputs.Insert row -> Inputs.Live.add live (Core.Dynamic.insert d row)
      | Inputs.Delete k -> Core.Dynamic.delete d ~id:(Inputs.Live.take live k)
      | Inputs.Revalidate -> ignore (Core.Dynamic.revalidate d))
    ops;
  let final = Core.Dynamic.revalidate d in
  let ops_s = now () -. t1 in
  let r =
    {
      ops_s;
      mid = !mid;
      final;
      final_digests =
        (Servsim.Trace.full_digest trace, Servsim.Trace.shape_digest trace, Servsim.Trace.count trace);
      live = Inputs.Live.to_list live;
      ledger = (c0, Servsim.Cost.snapshot cost);
      events = Servsim.Trace.count trace - e0;
    }
  in
  Core.Dynamic.release d;
  r

(* What one repetition observed. *)
type rep = {
  begin_s : float;
  begun : Servsim.Wire.dyn_fds;
  mid : Servsim.Wire.dyn_fds;
  final : Servsim.Wire.dyn_fds;
  live : int list;
  live_table : Table.t;
  work_s : float;  (** first op to the final Revalidate reply *)
  begin_cpu_s : float;  (** CPU time of Begin_dynamic, client and daemon *)
  work_cpu_s : float;  (** ... and of the stream, both daemons included *)
  recovery_s : float;  (** daemon restart to the first Revalidate reply *)
  frames : int;
  s0 : Servsim.Wire.stats;  (** the restarted daemon's view, before ... *)
  s1 : Servsim.Wire.stats;  (** ... and after the second half *)
  journal_bytes : int;  (** growth of the tenant's directory over the stream *)
  ins : float list;  (** request latencies, by verb *)
  del : float list;
  reval : float list;
}

let run cfg ~traced =
  let ck = Measure.checks () in
  let table = Inputs.dyn_table ~rows:cfg.rows ~seed:cfg.seed in
  let ops = Inputs.dyn_ops ~seed:cfg.seed ~count:cfg.ops in
  let half = cfg.ops / 2 in
  let capacity = cfg.rows + Inputs.inserts ops + 16 in
  let begin_seed = Inputs.dyn_begin_seed ~seed:cfg.seed in
  let reference = Fdbase.Tane.fds table in
  let wire_rows = List.init cfg.rows (fun r -> Dynserve.encode_row (Table.row table r)) in
  let data_dir = Filename.concat cfg.run_dir "data" in
  Unix.mkdir data_dir 0o700;
  let sock = Filename.concat cfg.run_dir "d.sock" in
  let spans = if traced then Some (Spans.create ()) else None in
  let span ~layer ~name f =
    match spans with Some s -> Spans.with_ s ~layer ~name f | None -> f ()
  in
  let connect d ~namespace =
    span ~layer:"remote" ~name:"remote.connect" (fun () -> Daemon.connect d ~namespace)
  in
  let daemon = ref (Some (Daemon.start ~sock ~data_dir ())) in
  let stop () =
    Option.iter
      (fun d ->
        daemon := None;
        Daemon.stop d)
      !daemon
  in
  let cpu () = Host.cpu_now ~live:(List.map (fun d -> d.Daemon.pid) (Option.to_list !daemon)) () in
  let stream rep =
    let ns = Printf.sprintf "stream-%d" rep in
    let conn = connect (Option.get !daemon) ~namespace:ns in
    let c0 = cpu () in
    let t0 = now () in
    let begun =
      span ~layer:"dynamic" ~name:"dynamic.begin" (fun () ->
          Servsim.Remote.begin_dynamic conn ~capacity ~seed:(Int64.of_int begin_seed)
            ~cols:Inputs.dyn_cols wire_rows)
    in
    let begin_s = now () -. t0 in
    let begin_cpu_s = cpu () -. c0 in
    Measure.op ck (fun () ->
        Measure.expect "Begin_dynamic FDs equal plaintext TANE"
          (List.equal Fdbase.Fd.equal (List.map fst (statuses begun)) reference
          && List.for_all snd (statuses begun)));
    let tenant_dir =
      Filename.concat data_dir
        (List.find (fun e -> Filename.check_suffix e ns) (Array.to_list (Sys.readdir data_dir)))
    in
    let dir0 = dir_bytes tenant_dir in
    let live = Inputs.Live.create cfg.rows in
    let rows_by_id = Hashtbl.create (2 * capacity) in
    List.iteri (fun id row -> Hashtbl.replace rows_by_id id row) (List.init cfg.rows (Table.row table));
    let ins = ref [] and del = ref [] and reval = ref [] in
    let timed samples ~name f =
      let t = now () in
      let v = span ~layer:"dynamic" ~name f in
      samples := (now () -. t) :: !samples;
      v
    in
    let serve conn op =
      Measure.op ck (fun () ->
          (match op with
          | Inputs.Insert row ->
              let id =
                timed ins ~name:"dynamic.insert" (fun () ->
                    Servsim.Remote.insert_row conn (Dynserve.encode_row row))
              in
              Hashtbl.replace rows_by_id id row;
              Inputs.Live.add live id
          | Inputs.Delete k ->
              let id = Inputs.Live.take live k in
              timed del ~name:"dynamic.delete" (fun () -> Servsim.Remote.delete_row conn ~id)
          | Inputs.Revalidate ->
              ignore (timed reval ~name:"dynamic.revalidate" (fun () -> Servsim.Remote.revalidate conn)));
          [])
    in
    let t_stream = now () and c_stream = cpu () in
    List.iteri (fun i op -> if i < half then serve conn op) ops;
    let frames_a = Servsim.Remote.frames conn in
    Servsim.Remote.close conn;
    stop ();
    let t_restart = now () in
    let conn, mid =
      span ~layer:"store" ~name:"store.recovery" (fun () ->
          let d = Daemon.start ~sock ~data_dir () in
          daemon := Some d;
          let conn = connect d ~namespace:ns in
          (conn, Servsim.Remote.revalidate conn))
    in
    let recovery_s = now () -. t_restart in
    let s0 = Servsim.Remote.stats conn and f0 = Servsim.Remote.frames conn in
    List.iteri (fun i op -> if i >= half then serve conn op) ops;
    let final = Servsim.Remote.revalidate conn in
    let work_s = now () -. t_stream and work_cpu_s = cpu () -. c_stream in
    let s1 = Servsim.Remote.stats conn in
    let frames = frames_a + Servsim.Remote.frames conn - f0 in
    Servsim.Remote.close conn;
    let live_ids = Inputs.Live.to_list live in
    {
      begin_s;
      begun;
      mid;
      final;
      live = live_ids;
      live_table =
        Table.make (Table.schema table) (Array.of_list (List.map (Hashtbl.find rows_by_id) live_ids));
      work_s;
      begin_cpu_s;
      work_cpu_s;
      recovery_s;
      frames;
      s0;
      s1;
      journal_bytes = dir_bytes tenant_dir - dir0;
      ins = !ins;
      del = !del;
      reval = !reval;
    }
  in
  let measured =
    Fun.protect
      ~finally:(fun () -> try stop () with Failure _ | Unix.Unix_error _ -> ())
      (fun () -> Discovery.repeat ~warm_up:cfg.warm_up ~seconds:cfg.seconds ~min_reps:cfg.min_reps stream)
  in
  let reps = List.map (fun (m : rep Discovery.measured) -> m.value) measured in
  let r0 = List.hd reps in
  let rp = replay ~begin_seed ~capacity ~half table ops in
  Measure.op ck (fun () ->
      let open Measure in
      List.concat_map
        (fun r ->
          expect "every repetition begins with the same digests" (digests r.begun = digests r0.begun)
          @ expect "final FD statuses equal the library replay" (statuses r.final = rp.final)
          @ expect "final digests equal the library replay" (digests r.final = rp.final_digests)
          @ expect "statuses after recovery equal the library replay" (statuses r.mid = rp.mid)
          @ expect "row ids equal the library replay" (r.live = rp.live))
        reps
      @ expect "final FD statuses equal direct validation on the live rows"
          (List.for_all (fun (fd, ok) -> ok = Fdbase.Validator.holds_fd r0.live_table fd) rp.final));
  let c0, c1 = rp.ledger in
  let trips = c1.round_trips - c0.round_trips
  and bytes = Discovery.moved c1 - Discovery.moved c0 in
  let per_rep f = Array.of_list (List.map f reps) in
  let at_reference f =
    Array.of_list (List.map (fun (m : rep Discovery.measured) -> Discovery.at_reference m (f m.value)) measured)
  in
  let open Measure in
  let end_to_end =
    if traced then []
    else
      [
        timing "setup_s" "s" (at_reference (fun r -> r.begin_cpu_s));
        timing "work_s" "s" (at_reference (fun r -> r.work_cpu_s));
        timing "work_lan_s" "s"
          (at_reference (fun r -> r.work_cpu_s) |> Array.map (( +. ) (Discovery.modeled_network ~trips ~bytes)));
        count "bytes_moved" "bytes" bytes;
        count "round_trips" "count" trips;
        count "client_peak_bytes" "bytes" c1.client_peak_bytes;
        count "server_bytes" "bytes" c1.server_bytes;
      ]
  in
  let per_layer =
    match spans with
    | None -> []
    | Some spans ->
        (* The Begin_dynamic discovery, rebuilt in process with a span
           around each layer call; it must match the daemon's answer. *)
        Spans.set_run spans (-1);
        let rebuilt =
          Discovery.traced_discover spans ~seed:begin_seed
            ~oracle:(Discovery.Retained { capacity = max 16 capacity })
            table
        in
        Measure.op ck (fun () ->
            expect "traced rebuild reproduces the Begin_dynamic discovery"
              (List.equal Fdbase.Fd.equal rebuilt.fds reference
              && (rebuilt.trace_full, rebuilt.trace_shape, rebuilt.trace_count) = digests r0.begun));
        (* The untraced twin of the rebuild, timed warm like it. *)
        let untraced_s =
          let t0 = now () in
          Core.Dynamic.release (Core.Dynamic.start ~seed:begin_seed ~capacity table);
          now () -. t0
        in
        let rebuild_s =
          List.fold_left
            (fun a n ->
              a +. Spans.total_duration (List.filter (fun s -> s.Spans.run = -1) (Spans.named spans n)))
            0.
            [ "session.create"; "enc_db.outsource"; "lattice.discover" ]
        in
        let updates = List.length r0.ins + List.length r0.del in
        let wire_s = r0.work_s -. r0.recovery_s -. rp.ops_s in
        let us f = Array.of_list (List.concat_map (fun r -> List.map (fun t -> t *. 1e6) (f r)) reps) in
        [
          exact "bench.trace_overhead" "ratio" ((rebuild_s /. untraced_s) -. 1.);
          timing "host.speed" "ratio"
            (Array.of_list (List.map (fun (m : rep Discovery.measured) -> m.speed) measured));
          exact "cpu.work_s" "s" r0.work_cpu_s;
          exact "wall.work_s" "s" r0.work_s;
          timing "dynamic.begin_s" "s" (per_rep (fun r -> r.begin_s));
          timing "dynamic.insert_p50_us" "us" (us (fun r -> r.ins));
          timing "dynamic.delete_p50_us" "us" (us (fun r -> r.del));
          exact "dynamic.update_p99_us" "us" (quantile (us (fun r -> r.ins @ r.del)) 0.99);
          timing "dynamic.revalidate_p50_us" "us" (us (fun r -> r.reval));
          exact "dynamic.updates_per_s" "1/s" (float_of_int updates /. (r0.work_s -. r0.recovery_s));
          exact "dynamic.blocks_per_update" "count" (ratio (float_of_int rp.events) (float_of_int updates));
          timing "store.recovery_s" "s" (per_rep (fun r -> r.recovery_s));
          timing "remote.connect_s" "s"
            (Array.of_list (List.map Spans.duration (Spans.named spans "remote.connect")));
          exact "store.journal_bytes_per_update" "bytes"
            (ratio (float_of_int r0.journal_bytes) (float_of_int updates));
          count "store.data_dir_bytes" "bytes" (dir_bytes data_dir);
          count "remote.frames" "count" r0.frames;
          exact "remote.wire_s" "s" wire_s;
          exact "remote.us_per_frame" "us" (wire_s /. float_of_int r0.frames *. 1e6);
        ]
        @ Discovery.service_metrics ~s0:r0.s0 ~s1:r0.s1
        @ Discovery.layer_metrics ck spans ~traced:[ rebuilt ]
  in
  Measure.outcome ck ~workload:"dyn-stream" ~repetitions:(List.length reps) ?spans ~end_to_end
    ~per_layer ()
