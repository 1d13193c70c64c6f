open Servsim

(* A store's slot count is fixed when it is created. *)
type store = { blocks : string array; name : string }

type state = {
  stores : (string, store) Hashtbl.t;
  trace : Trace.t;
  cost : Cost.t;
  started : float;
  mutable bytes : int;
  mutable dyn : Core.Dynamic.t option;
  mutable dyn_history : Wire.request list; (* newest first; see [export_dyn] *)
  mutable inserts : int;
  mutable deletes : int;
  mutable revalidates : int;
}

let create_state () =
  {
    stores = Hashtbl.create 32;
    trace = Trace.create ();
    cost = Cost.create ();
    started = Unix.gettimeofday ();
    bytes = 0;
    dyn = None;
    dyn_history = [];
    inserts = 0;
    deletes = 0;
    revalidates = 0;
  }

let dynamic_verb = function
  | Wire.Begin_dynamic _ | Wire.Insert_row _ | Wire.Delete_row _ | Wire.Revalidate -> true
  | _ -> false

let has_dyn st = Option.is_some st.dyn
let export_dyn st = List.rev st.dyn_history

let release_dyn st =
  match st.dyn with
  | None -> ()
  | Some d ->
      st.dyn <- None;
      Core.Dynamic.release d

let trace st = st.trace
let cost st = st.cost

(* Session-level frames ([Hello] before the session exists, and the
   version byte) are connection setup, not served requests: the client's
   [Remote.frames] counter skips them, so the server-side ledger must
   too, or the frames == ledger invariant breaks. *)
let counted = function Wire.Hello _ -> false | _ -> true

let account_request st ~bytes =
  Cost.round_trip st.cost;
  Cost.sent_to_server st.cost bytes

let account_response st ~bytes =
  Cost.sent_to_client st.cost bytes;
  Cost.set_server_bytes st.cost st.bytes

let find st name =
  match Hashtbl.find_opt st.stores name with
  | Some s -> s
  | None -> raise (Wire.Protocol_error ("no such store: " ^ name))

let out_of_bounds s i = i < 0 || i >= Array.length s.blocks

(* The session's own [Stats] figures: the ledger is exact; latency and
   event-loop counters are the daemon's to measure, so they are zero
   here.  The reply is fixed-width, so replay charges the same bytes
   whatever the daemon answered on the wire. *)
let stats st : Wire.stats =
  let c = Cost.snapshot st.cost in
  {
    uptime_us = Int64.of_float ((Unix.gettimeofday () -. st.started) *. 1e6);
    sessions = 1;
    frames = c.Cost.round_trips;
    bytes_in = c.Cost.bytes_to_server;
    bytes_out = c.Cost.bytes_to_client;
    p50_us = 0;
    p95_us = 0;
    p99_us = 0;
    loop_reads = 0;
    loop_writes = 0;
    loop_wakeups = 0;
    loop_rounds = 0;
    inserts = st.inserts;
    deletes = st.deletes;
    revalidates = st.revalidates;
    dyn_sessions = (if Option.is_some st.dyn then 1 else 0);
  }

let handle st = function
  | Wire.Create_store (name, n) ->
      if Hashtbl.mem st.stores name then Wire.Error ("store exists: " ^ name)
      else begin
        Hashtbl.replace st.stores name { blocks = Array.make n ""; name };
        Wire.Ok
      end
  | Wire.Drop_store name ->
      (match Hashtbl.find_opt st.stores name with
      | None -> ()
      | Some s ->
          Array.iter (fun c -> st.bytes <- st.bytes - String.length c) s.blocks;
          Hashtbl.remove st.stores name);
      Wire.Ok
  | Wire.Exchange { puts; gets } ->
      (* Resolve every store and check every index before mutating
         anything: the frame lands whole or not at all. *)
      let puts = List.map (fun (name, items) -> (find st name, items)) puts
      and gets = List.map (fun (name, idxs) -> (find st name, idxs)) gets in
      if
        List.exists (fun (s, items) -> List.exists (fun (i, _) -> out_of_bounds s i) items) puts
        || List.exists (fun (s, idxs) -> List.exists (out_of_bounds s) idxs) gets
      then Wire.Error "index out of bounds"
      else begin
        List.iter
          (fun (s, items) ->
            List.iter
              (fun (i, c) ->
                st.bytes <- st.bytes - String.length s.blocks.(i) + String.length c;
                s.blocks.(i) <- c;
                Trace.record_name st.trace s.name Trace.Write ~addr:i ~len:(String.length c))
              items)
          puts;
        let read (s, idxs) =
          List.map
            (fun i ->
              let c = s.blocks.(i) in
              Trace.record_name st.trace s.name Trace.Read ~addr:i ~len:(String.length c);
              c)
            idxs
        in
        Wire.Values (match gets with [ g ] -> read g | _ -> List.concat_map read gets)
      end
  | Wire.Begin_dynamic _ as req -> (
      match st.dyn with
      | Some _ -> Wire.Error "dynamic session already active"
      | None -> (
          match Dynserve.begin_dynamic req with
          | Result.Ok (d, resp) ->
              (* Recorded only on success: the history must replay to
                 exactly this state, and a failed begin leaves none. *)
              st.dyn <- Some d;
              st.dyn_history <- req :: st.dyn_history;
              resp
          | Result.Error msg -> Wire.Error msg))
  | (Wire.Insert_row _ | Wire.Delete_row _ | Wire.Revalidate) as req -> (
      match st.dyn with
      | None -> Wire.Error "no dynamic session: send Begin_dynamic first"
      | Some d ->
          (* Recorded and counted even when the engine rejects the op
             (arity mismatch, capacity): rejection is deterministic and
             touches no engine state, so replaying it is harmless — and
             necessary, because the serving path journaled the frame. *)
          st.dyn_history <- req :: st.dyn_history;
          (match req with
          | Wire.Insert_row _ -> st.inserts <- st.inserts + 1
          | Wire.Delete_row _ -> st.deletes <- st.deletes + 1
          | _ -> st.revalidates <- st.revalidates + 1);
          Dynserve.dispatch d req)
  | Wire.Digest ->
      Wire.Digests
        {
          full = Trace.full_digest st.trace;
          shape = Trace.shape_digest st.trace;
          count = Trace.count st.trace;
        }
  | Wire.Total_bytes -> Wire.Bytes_total st.bytes
  | Wire.Hello _ -> Wire.Ok
  | Wire.Ping -> Wire.Pong
  | Wire.Stats -> Wire.Stats_reply (stats st)
  | Wire.Bye -> Wire.Ok

(* Re-dispatch one journaled request with exactly the accounting the
   daemon's serving path performs.  The codec is canonical, so
   [Wire.request_size]/[response_size] reproduce the on-the-wire byte
   counts, and dispatch is deterministic (errors included) — replaying a
   journal therefore rebuilds trace digests and cost ledgers
   bit-identically to the original run. *)
let replay st req =
  let c = counted req in
  if c then account_request st ~bytes:(Wire.request_size req);
  let resp = try handle st req with Wire.Protocol_error msg -> Wire.Error msg in
  if c then account_response st ~bytes:(Wire.response_size resp)

let export_stores st =
  Hashtbl.fold (fun name s acc -> (name, Array.copy s.blocks) :: acc) st.stores []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
