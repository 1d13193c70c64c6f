open Relation

type method_ =
  | Or_oram
  | Ex_oram
  | Sort

let method_name = function
  | Or_oram -> "Or-ORAM"
  | Ex_oram -> "Ex-ORAM"
  | Sort -> "Sort"

type report = {
  fds : Fdbase.Fd.t list;
  sets_checked : int;
  plan : Attrset.t list;
  cost : Servsim.Cost.snapshot;
  elapsed_s : float;
  trace_full : int64;
  trace_shape : int64;
  trace_count : int;
  step_round_trips : int;
  step_bytes : int;
}

let modeled_network_seconds ?(rtt_s = 2e-4) ?(gbps = 1.0) r =
  (float_of_int r.step_round_trips *. rtt_s)
  +. (float_of_int r.step_bytes *. 8.0 /. (gbps *. 1e9))

let now () = Unix.gettimeofday ()

let bytes_moved (s : Servsim.Cost.snapshot) =
  s.Servsim.Cost.bytes_to_server + s.Servsim.Cost.bytes_to_client

let finish session (result : Fdbase.Lattice.result) ~t0 =
  let trace = Session.trace session in
  let cost = Servsim.Cost.snapshot (Session.cost session) in
  {
    fds = result.Fdbase.Lattice.fds;
    sets_checked = result.Fdbase.Lattice.sets_checked;
    plan = result.Fdbase.Lattice.plan;
    cost;
    elapsed_s = now () -. t0;
    trace_full = Servsim.Trace.full_digest trace;
    trace_shape = Servsim.Trace.shape_digest trace;
    trace_count = Servsim.Trace.count trace;
    step_round_trips = cost.Servsim.Cost.round_trips;
    step_bytes = bytes_moved cost;
  }

let discover ?seed ?max_lhs ?remote method_ table =
  let n = Table.rows table and m = Table.cols table in
  Log.info (fun f -> f "discover: method=%s n=%d m=%d" (method_name method_) n m);
  let session = Session.create ?seed ?remote ~n ~m () in
  let db = Enc_db.outsource session table in
  let check = Set_level.check session in
  let t0 = now () in
  let result =
    match method_ with
    | Or_oram -> Fdbase.Lattice.discover ~m ~n ?max_lhs ~check (Or_oram_method.oracle session db)
    | Ex_oram -> Fdbase.Lattice.discover ~m ~n ?max_lhs ~check (Ex_oram_method.oracle session db)
    | Sort -> Fdbase.Lattice.discover ~m ~n ?max_lhs ~check (Sort_method.oracle session db)
  in
  let report = finish session result ~t0 in
  Log.info (fun f ->
      f "discover: %d FDs, %d lattice nodes, %.3fs, %d accesses"
        (List.length report.fds) report.sets_checked report.elapsed_s report.trace_count);
  report

(* Build the partitions of [x]'s Property-1 generators bottom-up (not
   timed), then run the final single/combine step — the unit the paper's
   §VII benchmarks measure — and report its time, round trips and bytes
   in isolation. *)
let partition_cardinality ?seed method_ table x =
  let n = Table.rows table and m = Table.cols table in
  let session = Session.create ?seed ~n ~m () in
  let db = Enc_db.outsource session table in
  let oracle_run (type h) (oracle : h Fdbase.Lattice.oracle) =
    let rec build_generators x =
      match Attrset.elements x with
      | [] -> invalid_arg "Protocol.partition_cardinality: empty attribute set"
      | [ a ] -> fst (oracle.Fdbase.Lattice.single a)
      | _ ->
          let x1, x2 = Attrset.choose_two_generators x in
          let h1 = build_generators x1 and h2 = build_generators x2 in
          let h = fst (oracle.Fdbase.Lattice.combine x h1 h2) in
          oracle.Fdbase.Lattice.release h1;
          oracle.Fdbase.Lattice.release h2;
          h
    in
    let card, dt, before =
      match Attrset.elements x with
      | [] -> invalid_arg "Protocol.partition_cardinality: empty attribute set"
      | [ a ] ->
          let before = Servsim.Cost.snapshot (Session.cost session) in
          let t0 = now () in
          let _, card = oracle.Fdbase.Lattice.single a in
          (card, now () -. t0, before)
      | _ ->
          let x1, x2 = Attrset.choose_two_generators x in
          let h1 = build_generators x1 and h2 = build_generators x2 in
          let before = Servsim.Cost.snapshot (Session.cost session) in
          let t0 = now () in
          let _, card = oracle.Fdbase.Lattice.combine x h1 h2 in
          let dt = now () -. t0 in
          oracle.Fdbase.Lattice.release h1;
          oracle.Fdbase.Lattice.release h2;
          (card, dt, before)
    in
    let after = Servsim.Cost.snapshot (Session.cost session) in
    let trace = Session.trace session in
    ( card,
      {
        fds = [];
        sets_checked = Attrset.cardinal x * 2;
        plan = [ x ];
        cost = after;
        elapsed_s = dt;
        trace_full = Servsim.Trace.full_digest trace;
        trace_shape = Servsim.Trace.shape_digest trace;
        trace_count = Servsim.Trace.count trace;
        step_round_trips = after.Servsim.Cost.round_trips - before.Servsim.Cost.round_trips;
        step_bytes = bytes_moved after - bytes_moved before;
      } )
  in
  match method_ with
  | Or_oram -> oracle_run (Or_oram_method.oracle session db)
  | Ex_oram -> oracle_run (Ex_oram_method.oracle session db)
  | Sort -> oracle_run (Sort_method.oracle session db)

let discover_approx ?seed ?max_lhs ~epsilon method_ table =
  let n = Table.rows table and m = Table.cols table in
  let session = Session.create ?seed ~n ~m () in
  let db = Enc_db.outsource session table in
  match method_ with
  | Or_oram -> Fdbase.Approx.discover ~m ~n ~epsilon ?max_lhs (Or_oram_method.oracle session db)
  | Ex_oram -> Fdbase.Approx.discover ~m ~n ~epsilon ?max_lhs (Ex_oram_method.oracle session db)
  | Sort -> Fdbase.Approx.discover ~m ~n ~epsilon ?max_lhs (Sort_method.oracle session db)

let pp_report schema ppf r =
  Format.fprintf ppf "@[<v>discovered %d FDs (%d lattice nodes, %.3fs):@,"
    (List.length r.fds) r.sets_checked r.elapsed_s;
  List.iter (fun fd -> Format.fprintf ppf "  %a@," (Fdbase.Fd.pp_named schema) fd) r.fds;
  Format.fprintf ppf "%a@]" Servsim.Cost.pp_snapshot r.cost
