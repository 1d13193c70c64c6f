(* The discovery workloads: one secure FD discovery per repetition over
   one table, in a closed loop from one client.

   or-local    Or-ORAM against the in-process server: ORAM client,
               cell cipher and lattice, no wire.
   sort-local  Sort against the in-process server: the bitonic network
               and the cipher, no ORAM.
   or-daemon   Or-ORAM over a Unix socket to a child daemon, a fresh
               namespace per repetition, with the same table and client
               seeds as or-local: the difference is the wire plus
               daemon dispatch.

   Untraced repetitions go through the public entry point
   [Core.Protocol.discover] and give the end-to-end metrics.  The traced
   run rebuilds the same discovery from its parts (Session.create,
   Enc_db.outsource, Lattice.discover over the method's oracle, and
   Set_level.check) with a span around every call into a layer, and
   must reproduce the untraced run exactly. *)

open Relation

type kind = Or_local | Sort_local | Or_daemon

type config = {
  seed : int;
  seconds : float;  (** measuring window for the repetitions *)
  rows : int;
  max_lhs : int;
  min_reps : int;
  setups_per_rep : int;  (** timed set-ups before each untraced repetition *)
  warm_up : float;  (** seconds of repetitions run before measuring *)
  run_dir : string;  (** scratch directory for the daemon socket *)
}

let name = function Or_local -> "or-local" | Sort_local -> "sort-local" | Or_daemon -> "or-daemon"
let method_of = function Or_local | Or_daemon -> Core.Protocol.Or_oram | Sort_local -> Core.Protocol.Sort
let now = Unix.gettimeofday
let moved (c : Servsim.Cost.snapshot) = c.Servsim.Cost.bytes_to_server + c.Servsim.Cost.bytes_to_client

(* [Protocol.modeled_network_seconds] of a ledger delta that is not a
   discovery report (the dynamic stream's); the model reads only the
   two step fields. *)
let modeled_network ~trips ~bytes =
  Core.Protocol.modeled_network_seconds
    {
      Core.Protocol.fds = [];
      sets_checked = 0;
      plan = [];
      cost = Servsim.Cost.snapshot (Servsim.Cost.create ());
      elapsed_s = 0.;
      trace_full = 0L;
      trace_shape = 0L;
      trace_count = 0;
      step_round_trips = trips;
      step_bytes = bytes;
    }

(* A measured repetition, with the host's speed while it ran (see
   [Host]). *)
type 'a measured = {
  index : int;
  speed : float;  (** the host's speed relative to reference speed *)
  value : 'a;
}

(* CPU seconds of a measured repetition at reference speed. *)
let at_reference m cpu_s = cpu_s *. m.speed

(* Repetitions [f 0], [f 1], ...  Those that start in the first
   [warm_up] seconds are not measured: they bring the CPU up to speed
   (an idle core runs its first second up to 50% slower) and grow the
   heap.  Then at least [min_reps] more run, until the next one,
   predicted from the last, would end past the measuring window of
   [seconds]. *)
let repeat ?(warm_up = 0.) ~seconds ~min_reps f =
  let w0 = now () in
  let rec warm rep =
    if now () -. w0 < warm_up then begin
      ignore (f rep);
      warm (rep + 1)
    end
    else rep
  in
  let first = warm 0 in
  let t0 = now () in
  let rec go rep last acc =
    if rep - first >= min_reps && now () -. t0 +. last > seconds then List.rev acc
    else
      let t = now () in
      let value, speed = Host.sampled (fun () -> f rep) in
      go (rep + 1) (now () -. t) ({ index = rep; speed; value } :: acc)
  in
  go first 0. []

let median_of f l = Measure.median (Array.of_list (List.map f l))

(* {2 Correctness} *)

let same_counts (a : Servsim.Cost.snapshot) (b : Servsim.Cost.snapshot) =
  a.bytes_to_server = b.bytes_to_server && a.bytes_to_client = b.bytes_to_client
  && a.round_trips = b.round_trips && a.server_bytes = b.server_bytes

(* Every discovery must return the plaintext TANE answer, and all
   repetitions must show the server the same trace shape and move the
   same bytes in the same round trips. *)
let check_report ~reference ~(first : Core.Protocol.report) (r : Core.Protocol.report) =
  let open Measure in
  expect "FDs equal plaintext TANE" (List.equal Fdbase.Fd.equal r.fds reference.Fdbase.Lattice.fds)
  @ expect "sets_checked equals plaintext TANE"
      (r.sets_checked = reference.Fdbase.Lattice.sets_checked)
  @ expect "shape digest repeats across repetitions" (r.trace_shape = first.trace_shape)
  @ expect "bytes, round trips and server bytes repeat across repetitions"
      (same_counts r.cost first.cost)
  @ expect "client ledger balances" (r.cost.Servsim.Cost.client_underflows = 0)

(* Same client seed, same run: what a rebuilt or remote discovery must
   reproduce. *)
let same_run (a : Core.Protocol.report) (b : Core.Protocol.report) =
  List.equal Fdbase.Fd.equal a.fds b.fds
  && a.sets_checked = b.sets_checked && a.trace_full = b.trace_full
  && a.trace_shape = b.trace_shape && a.trace_count = b.trace_count && a.cost = b.cost

(* {2 One repetition} *)

type remote_rep = {
  frames : int;  (** wire frames of the discovery, setup included *)
  s0 : Servsim.Wire.stats;  (** the namespace's stats before ... *)
  s1 : Servsim.Wire.stats;  (** ... and after the discovery *)
  server_digests_ok : bool;
}

type rep = {
  report : Core.Protocol.report;
  cpu_s : float;  (** CPU time of the whole call, client and daemon *)
  remote : remote_rep option;
}

let live daemon = Option.to_list (Option.map (fun d -> d.Daemon.pid) daemon)

let namespaces = ref 0

let fresh_namespace prefix =
  incr namespaces;
  Printf.sprintf "%s-%d" prefix !namespaces

let with_conn daemon ~prefix f =
  let conn = Daemon.connect daemon ~namespace:(fresh_namespace prefix) in
  Fun.protect ~finally:(fun () -> Servsim.Remote.close conn) (fun () -> f conn)

let discover cfg kind ~table ?daemon ?remote rep =
  let report, cpu_s =
    Host.cpu_timed ~live:(live daemon) (fun () ->
        Core.Protocol.discover
          ~seed:(Inputs.client_seed ~seed:cfg.seed rep)
          ~max_lhs:cfg.max_lhs ?remote (method_of kind) table)
  in
  { report; cpu_s; remote = None }

let discover_remote cfg kind ~table daemon rep =
  with_conn daemon ~prefix:"rep" (fun conn ->
      let s0 = Servsim.Remote.stats conn in
      let f0 = Servsim.Remote.frames conn in
      let r = discover cfg kind ~table ~daemon ~remote:conn rep in
      let frames = Servsim.Remote.frames conn - f0 in
      let s1 = Servsim.Remote.stats conn in
      let server_digests_ok =
        Servsim.Remote.digests conn ~full:r.report.trace_full ~shape:r.report.trace_shape
          ~count:r.report.trace_count
      in
      { r with remote = Some { frames; s0; s1; server_digests_ok } })

(* The set-up a user pays before discovery starts: a fresh session and
   the encrypted upload, plus the connection for the daemon workload.
   Its CPU time, the daemon's included. *)
let setup_once cfg ~table ?daemon i =
  let n = Table.rows table and m = Table.cols table in
  let conn, cpu_s =
    Host.cpu_timed ~live:(live daemon) (fun () ->
        let conn =
          Option.map (fun d -> Daemon.connect d ~namespace:(fresh_namespace "setup")) daemon
        in
        let session =
          Core.Session.create ~seed:(Inputs.client_seed ~seed:cfg.seed i) ?remote:conn ~n ~m ()
        in
        ignore (Core.Enc_db.outsource session table);
        conn)
  in
  Option.iter Servsim.Remote.close conn;
  cpu_s

(* {2 The traced rebuild} *)

let wrap_oracle spans session (o : 'h Fdbase.Lattice.oracle) : 'h Fdbase.Lattice.oracle =
  let cost = Core.Session.cost session and trace = Core.Session.trace session in
  let call ~name ~size f =
    let c0 = Servsim.Cost.snapshot cost and e0 = Servsim.Trace.count trace in
    Spans.with_ spans ~layer:"oracle" ~name f ~attrs:(fun _ ->
        let c1 = Servsim.Cost.snapshot cost in
        [
          ("x", size);
          ("blocks", Servsim.Trace.count trace - e0);
          ("trips", c1.round_trips - c0.round_trips);
          ("bytes", moved c1 - moved c0);
        ])
  in
  {
    Fdbase.Lattice.single = (fun col -> call ~name:"oracle.single" ~size:1 (fun () -> o.single col));
    combine =
      (fun x h1 h2 ->
        call ~name:"oracle.combine" ~size:(Attrset.cardinal x) (fun () -> o.combine x h1 h2));
    release = (fun h -> call ~name:"oracle.release" ~size:0 (fun () -> o.release h));
  }

(* Where the traced rebuild gets its oracle: a discovery method, or
   the Ex-ORAM structures a dynamic session retains (built exactly as
   [Core.Dynamic.start] builds them). *)
type oracle = Method of Core.Protocol.method_ | Retained of { capacity : int }

(* [Protocol.discover]'s steps with a span around each layer call. *)
let traced_discover spans ~seed ?max_lhs ?remote ~oracle table =
  let n = Table.rows table and m = Table.cols table in
  let session =
    Spans.with_ spans ~layer:"session" ~name:"session.create" (fun () ->
        Core.Session.create ~seed ?remote ~n ~m ())
  in
  let cost = Core.Session.cost session in
  let b0 = moved (Servsim.Cost.snapshot cost) in
  let db =
    Spans.with_ spans ~layer:"enc_db" ~name:"enc_db.outsource"
      ~attrs:(fun _ -> [ ("bytes", moved (Servsim.Cost.snapshot cost) - b0) ])
      (fun () -> Core.Enc_db.outsource session table)
  in
  let set_level = Core.Set_level.check session in
  let check c1 c2 =
    Spans.with_ spans ~layer:"set_level" ~name:"set_level.check" (fun () -> set_level c1 c2)
  in
  let search o =
    Spans.with_ spans ~layer:"lattice" ~name:"lattice.discover" (fun () ->
        Fdbase.Lattice.discover ~m ~n ?max_lhs ~check (wrap_oracle spans session o))
  in
  let t0 = now () in
  let result =
    match oracle with
    | Method Core.Protocol.Or_oram -> search (Core.Or_oram_method.oracle session db)
    | Method Core.Protocol.Sort -> search (Core.Sort_method.oracle session db)
    | Method Core.Protocol.Ex_oram -> search (Core.Ex_oram_method.oracle session db)
    | Retained { capacity } ->
        let module X = Core.Ex_oram_method in
        search
          {
            Fdbase.Lattice.single =
              (fun col ->
                let h = X.single db ~capacity col in
                (h, X.cardinality h));
            combine =
              (fun x h1 h2 ->
                let h = X.combine session ~capacity x h1 h2 in
                (h, X.cardinality h));
            release = ignore;
          }
  in
  let elapsed_s = now () -. t0 in
  let trace = Core.Session.trace session in
  let cost = Servsim.Cost.snapshot cost in
  {
    Core.Protocol.fds = result.Fdbase.Lattice.fds;
    sets_checked = result.sets_checked;
    plan = result.plan;
    cost;
    elapsed_s;
    trace_full = Servsim.Trace.full_digest trace;
    trace_shape = Servsim.Trace.shape_digest trace;
    trace_count = Servsim.Trace.count trace;
    step_round_trips = cost.round_trips;
    step_bytes = moved cost;
  }

let traced_rep spans cfg kind ~table ?daemon rep =
  Spans.set_run spans rep;
  let run remote =
    traced_discover spans
      ~seed:(Inputs.client_seed ~seed:cfg.seed rep)
      ~max_lhs:cfg.max_lhs ?remote ~oracle:(Method (method_of kind)) table
  in
  match daemon with
  | None -> run None
  | Some d ->
      let conn =
        Spans.with_ spans ~layer:"remote" ~name:"remote.connect" (fun () ->
            Daemon.connect d ~namespace:(fresh_namespace "traced"))
      in
      Fun.protect ~finally:(fun () -> Servsim.Remote.close conn) (fun () -> run (Some conn))

(* {2 Cipher calibration}

   Time [Cell_cipher.encrypt] and [decrypt_to] on the workload's block
   size in this process: one traced block event is one cell encrypted
   (write) or decrypted (read), so blocks x ns/block estimates the
   discovery's cipher time without instrumenting the cipher. *)
let ns_per_block ~ct_len =
  let cipher = Crypto.Cell_cipher.create (String.make 16 'k') in
  let pt = String.make (max 0 (ct_len - 17)) 'p' in
  let ct = Crypto.Cell_cipher.encrypt cipher pt in
  let dst = Bytes.create (String.length ct) in
  let iters = 4000 in
  let batch () =
    let t0 = now () in
    for _ = 1 to iters do
      ignore (Crypto.Cell_cipher.encrypt cipher pt)
    done;
    for _ = 1 to iters do
      ignore (Crypto.Cell_cipher.decrypt_to cipher ct dst 0)
    done;
    (now () -. t0) /. float_of_int (2 * iters) *. 1e9
  in
  Measure.median (Array.init 5 (fun _ -> batch ()))

(* The per-layer split of the traced repetitions: each figure is the
   median over repetitions of that repetition's total.  The split must
   account for each traced discovery's time. *)
let layer_metrics ck spans ~traced =
  let open Measure in
  let all = Spans.spans spans in
  let self_time = Spans.self_times spans in
  let runs =
    List.sort_uniq compare
      (List.filter_map
         (fun s -> if s.Spans.name = "lattice.discover" then Some s.Spans.run else None)
         all)
  in
  let in_run r name = List.filter (fun s -> s.Spans.run = r && s.Spans.name = name) all in
  let per_run f = Array.of_list (List.map f runs) in
  let dur name = per_run (fun r -> Spans.total_duration (in_run r name)) in
  let level k =
    per_run (fun r ->
        Spans.total_duration
          (List.filter
             (fun s -> Spans.attr s "x" = k)
             (in_run r (if k = 1 then "oracle.single" else "oracle.combine"))))
  in
  let lattice_self =
    per_run (fun r -> List.fold_left (fun a s -> a +. self_time s) 0. (in_run r "lattice.discover"))
  in
  let first = runs |> List.hd in
  let calls name = List.length (in_run first name) in
  let work = in_run first "oracle.single" @ in_run first "oracle.combine" in
  let n_calls = List.length work in
  let per_call k = ratio (float_of_int (Spans.sum_attr work k)) (float_of_int n_calls) in
  let traced_s = Array.of_list (List.map (fun (r : Core.Protocol.report) -> r.elapsed_s) traced) in
  let covered =
    List.fold_left
      (fun acc name -> Array.map2 ( +. ) acc (dur name))
      lattice_self
      [ "oracle.single"; "oracle.combine"; "oracle.release"; "set_level.check" ]
  in
  let combine_ms =
    Array.of_list (List.map (fun s -> Spans.duration s *. 1e3) (Spans.named spans "oracle.combine"))
  in
  let coverage = Array.map2 (fun c t -> c /. t) covered traced_s in
  Measure.op ck (fun () ->
      Measure.expect "per-layer split covers the traced discovery within 5%"
        (Array.for_all (fun c -> Float.abs (c -. 1.) <= 0.05) coverage));
  let r0 = List.hd traced in
  let blocks = Spans.sum_attr work "blocks" in
  let block_len = ratio (float_of_int (moved r0.cost)) (float_of_int r0.trace_count) in
  let ns = ns_per_block ~ct_len:(16 * max 2 (int_of_float (Float.round (block_len /. 16.)))) in
  let est_s = float_of_int blocks *. ns *. 1e-9 in
  [
    count "lattice.sets_checked" "count" r0.sets_checked;
    timing "lattice.level1_s" "s" (level 1);
    timing "lattice.level2_s" "s" (level 2);
    timing "lattice.level3_s" "s" (level 3);
    timing "lattice.self_s" "s" lattice_self;
    count "oracle.single_calls" "count" (calls "oracle.single");
    count "oracle.combine_calls" "count" (calls "oracle.combine");
    timing "oracle.single_s" "s" (dur "oracle.single");
    timing "oracle.combine_s" "s" (dur "oracle.combine");
    timing "oracle.release_s" "s" (dur "oracle.release");
    exact "oracle.combine_p50_ms" "ms" (if combine_ms = [||] then 0. else quantile combine_ms 0.5);
    exact "oracle.combine_p90_ms" "ms" (if combine_ms = [||] then 0. else quantile combine_ms 0.9);
    exact "oracle.blocks_per_call" "count" (per_call "blocks");
    exact "oracle.trips_per_call" "count" (per_call "trips");
    exact "oracle.bytes_per_call" "bytes" (per_call "bytes");
    count "set_level.calls" "count" (calls "set_level.check");
    timing "set_level.s" "s" (dur "set_level.check");
    timing "session.create_s" "s" (dur "session.create");
    timing "enc_db.outsource_s" "s" (dur "enc_db.outsource");
    count "enc_db.bytes" "bytes" (Spans.sum_attr (in_run first "enc_db.outsource") "bytes");
    count "servsim.trace_events" "count" r0.trace_count;
    exact "servsim.bytes_per_trip" "bytes"
      (ratio (float_of_int (moved r0.cost)) (float_of_int r0.cost.round_trips));
    count "crypto.blocks" "count" blocks;
    exact "crypto.ns_per_block" "ns" ns;
    exact "crypto.est_s" "s" est_s;
    exact "crypto.est_share" "ratio" (ratio est_s (median traced_s));
    exact "bench.split_coverage" "ratio" (median coverage);
  ]

(* {2 The workload} *)

(* The daemon's view of one session, from [Remote.stats] replies taken
   before ([s0]) and after ([s1]) the measured requests. *)
let service_metrics ~(s0 : Servsim.Wire.stats) ~(s1 : Servsim.Wire.stats) =
  let open Measure in
  let d f = f s1 - f s0 in
  let frames = d (fun s -> s.Servsim.Wire.frames) in
  [
    count "service.p50_us" "us" s1.p50_us;
    count "service.p99_us" "us" s1.p99_us;
    exact "service.syscalls_per_frame" "ratio"
      (ratio (float_of_int (d (fun s -> s.loop_reads + s.loop_writes))) (float_of_int frames));
    exact "service.frames_per_wakeup" "ratio"
      (ratio (float_of_int frames) (float_of_int (d (fun s -> s.loop_wakeups))));
    count "service.bytes_in" "bytes" (d (fun s -> s.bytes_in));
    count "service.bytes_out" "bytes" (d (fun s -> s.bytes_out));
  ]

let run cfg kind ~traced =
  let ck = Measure.checks () in
  let table = Inputs.discovery_table ~rows:cfg.rows ~seed:cfg.seed in
  let reference = Fdbase.Tane.discover ~max_lhs:cfg.max_lhs table in
  let body daemon =
    let first = ref None in
    let checked (r, remote) =
      let f = Option.value ~default:r !first in
      if Option.is_none !first then first := Some r;
      Measure.expect "or-daemon: server digests equal the client's"
        (match remote with Some rr -> rr.server_digests_ok | None -> true)
      @ check_report ~reference ~first:f r
    in
    let untraced rep =
      let result =
        match daemon with
        | Some d -> discover_remote cfg kind ~table d rep
        | None -> discover cfg kind ~table rep
      in
      Measure.op ck (fun () -> checked (result.report, result.remote));
      result
    in
    (* The or-daemon parity check: the local run at the first measured
       repetition's client seed must match the remote one bit for bit. *)
    let parity reps =
      match (daemon, reps) with
      | Some _, (m : rep measured) :: _ ->
          let local = discover cfg kind ~table m.index in
          Measure.op ck (fun () ->
              Measure.expect "or-daemon: local and remote runs give equal digests and Cost"
                (same_run local.report m.value.report));
          Some local
      | _ -> None
    in
    let host_layers (reps : rep measured list) =
      let per_rep f = Array.of_list (List.map f reps) in
      [
        Measure.timing "host.speed" "ratio" (per_rep (fun m -> m.speed));
        Measure.timing "cpu.work_s" "s" (per_rep (fun m -> m.value.cpu_s));
        Measure.timing "wall.work_s" "s" (per_rep (fun m -> m.value.report.elapsed_s));
      ]
    in
    if not traced then begin
      (* The timed set-ups are spread over the whole run, so that their
         median does not hang on one moment of the host. *)
      let measured =
        repeat ~warm_up:cfg.warm_up ~seconds:cfg.seconds ~min_reps:cfg.min_reps (fun rep ->
            let setups = List.init cfg.setups_per_rep (fun _ -> setup_once cfg ~table ?daemon rep) in
            (setups, untraced rep))
      in
      let reps = List.map (fun m -> { m with value = snd m.value }) measured in
      ignore (parity reps);
      let r0 = (List.hd reps).value.report in
      let per_rep f = Array.of_list (List.map f reps) in
      let work_s (m : rep measured) = at_reference m m.value.cpu_s in
      let open Measure in
      ( List.length reps,
        None,
        [
          timing "setup_s" "s"
            (Array.of_list (List.concat_map (fun m -> List.map (at_reference m) (fst m.value)) measured));
          timing "work_s" "s" (per_rep work_s);
          timing "work_lan_s" "s"
            (per_rep (fun m -> work_s m +. Core.Protocol.modeled_network_seconds m.value.report));
          count "bytes_moved" "bytes" (moved r0.cost);
          count "round_trips" "count" r0.cost.round_trips;
          timing "client_peak_bytes" "bytes"
            (per_rep (fun m -> float_of_int m.value.report.cost.client_peak_bytes));
          count "server_bytes" "bytes" r0.cost.server_bytes;
        ],
        [] )
    end
    else begin
      (* Untraced and traced repetitions alternate at the same client
         seeds, so the overhead compares like with like. *)
      let spans = Spans.create () in
      let pairs =
        repeat ~seconds:cfg.seconds ~min_reps:1 (fun rep ->
            let u = untraced rep in
            let t = traced_rep spans cfg kind ~table ?daemon rep in
            Measure.op ck (fun () ->
                Measure.expect "traced rebuild reproduces the untraced run" (same_run t u.report)
                @ checked (t, None));
            (u, t))
      in
      let untraced_reps = List.map (fun m -> { m with value = fst m.value }) pairs in
      let traced = List.map (fun m -> snd m.value) pairs in
      let untraced_s = median_of (fun m -> m.value.report.Core.Protocol.elapsed_s) untraced_reps in
      let remote_layers =
        match (parity untraced_reps, untraced_reps) with
        | Some local, { value = { report = r0; remote = Some rr; _ }; _ } :: _ ->
            let wire_s = median_of (fun m -> m.value.cpu_s) untraced_reps -. local.cpu_s in
            let set_level_calls = List.length (Spans.named spans "set_level.check") / List.length traced in
            Measure.op ck (fun () ->
                Measure.expect "or-daemon: wire frames = round trips - set-level exchanges"
                  (rr.frames = r0.cost.round_trips - set_level_calls));
            let open Measure in
            [
              timing "remote.connect_s" "s"
                (Array.of_list (List.map Spans.duration (Spans.named spans "remote.connect")));
              count "remote.frames" "count" rr.frames;
              exact "remote.wire_s" "s" wire_s;
              exact "remote.us_per_frame" "us" (wire_s /. float_of_int rr.frames *. 1e6);
            ]
            @ service_metrics ~s0:rr.s0 ~s1:rr.s1
        | _ -> []
      in
      let overhead =
        Measure.exact "bench.trace_overhead" "ratio"
          (median_of (fun (r : Core.Protocol.report) -> r.elapsed_s) traced /. untraced_s -. 1.)
      in
      ( List.length pairs,
        Some spans,
        [],
        (overhead :: host_layers untraced_reps) @ layer_metrics ck spans ~traced @ remote_layers )
    end
  in
  let reps, spans, end_to_end, per_layer =
    match kind with
    | Or_daemon ->
        Daemon.with_daemon ~sock:(Filename.concat cfg.run_dir "d.sock") (fun d -> body (Some d))
    | Or_local | Sort_local -> body None
  in
  Measure.outcome ck ~workload:(name kind) ~repetitions:reps ?spans ~end_to_end ~per_layer ()
