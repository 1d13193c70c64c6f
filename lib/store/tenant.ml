open Servsim

(* Durable image of one tenant session: a snapshot file plus a
   generation-numbered write-ahead journal, both in CRC-framed
   {!Segment} records under a per-namespace directory.

   Layout under [<data_dir>/<encoded namespace>/]:

     snapshot      meta record, then one wire-encoded reconstruction
                   request per store/slot (atomic replace on rewrite)
     wal-<g>.log   every counted request served since snapshot
                   generation <g>, in service order

   The journal records *all* counted requests, reads included: the trace
   digests fold read accesses too, so replaying only mutations would
   recover the blocks but not the digests.  Replay goes through
   {!Handler.replay}, which reproduces the serving path's accounting
   exactly — after recovery, digests and cost ledgers are bit-identical
   to the uninterrupted run.

   Crash safety is a two-file dance: a snapshot at generation [g+1] is
   written atomically ({!Fsio.write_file_atomic}) while [wal-g.log]
   still exists, and only then is the old journal removed and
   [wal-(g+1).log] started.  Whatever the crash point, the snapshot
   names (via its meta record) exactly the journal generation that
   extends it; any other wal file is stale and deleted on open. *)

exception Corrupt of string

let corruptf fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* {2 Namespace encoding}

   A namespace is client-chosen and must not traverse the filesystem.
   Names made only of [A-Za-z0-9._-] keep themselves (prefixed "t-" so
   "." and ".." are impossible and the two encodings cannot collide);
   anything else becomes "x-" ^ hex.  Wire.max_namespace_len is 64, so
   the worst case (x- + 128 hex digits) stays well inside any
   filesystem's component limit. *)

let safe_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '-'

let encode_ns ns =
  if ns <> "" && String.for_all safe_char ns then "t-" ^ ns
  else begin
    let b = Buffer.create (2 + (2 * String.length ns)) in
    Buffer.add_string b "x-";
    String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) ns;
    Buffer.contents b
  end

let tenant_dir ~data_dir ns = Filename.concat data_dir (encode_ns ns)
let wal_path ~dir ~gen = Filename.concat dir (Printf.sprintf "wal-%d.log" gen)
let snapshot_path ~dir = Filename.concat dir "snapshot"

(* {2 Snapshot meta record}

   "sfddsnp1" magic, then 13 little-endian u64s: the journal generation,
   the five words of {!Trace.persisted}, and the seven counters of a
   {!Cost.snapshot}. *)

let meta_magic = "sfddsnp1"
let meta_len = String.length meta_magic + (13 * 8)

let add_u64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (i * 8)) land 0xff))
  done

let u64_at s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := !v lor (Char.code s.[off + i] lsl (i * 8))
  done;
  !v

type meta = { m_gen : int; m_trace : Trace.persisted; m_cost : Cost.snapshot }

let encode_meta m =
  let buf = Buffer.create meta_len in
  Buffer.add_string buf meta_magic;
  List.iter (add_u64 buf)
    [
      m.m_gen;
      m.m_trace.Trace.p_count;
      m.m_trace.Trace.p_full_lo;
      m.m_trace.Trace.p_full_hi;
      m.m_trace.Trace.p_shape_lo;
      m.m_trace.Trace.p_shape_hi;
      m.m_cost.Cost.bytes_to_server;
      m.m_cost.Cost.bytes_to_client;
      m.m_cost.Cost.round_trips;
      m.m_cost.Cost.server_bytes;
      m.m_cost.Cost.client_peak_bytes;
      m.m_cost.Cost.client_current_bytes;
      m.m_cost.Cost.client_underflows;
    ];
  Buffer.contents buf

let decode_meta s =
  if String.length s <> meta_len then corruptf "snapshot meta: %d bytes, want %d" (String.length s) meta_len;
  if not (String.equal (String.sub s 0 (String.length meta_magic)) meta_magic) then
    corruptf "snapshot meta: bad magic";
  let field i = u64_at s (String.length meta_magic + (i * 8)) in
  {
    m_gen = field 0;
    m_trace =
      {
        Trace.p_count = field 1;
        p_full_lo = field 2;
        p_full_hi = field 3;
        p_shape_lo = field 4;
        p_shape_hi = field 5;
      };
    m_cost =
      {
        Cost.bytes_to_server = field 6;
        bytes_to_client = field 7;
        round_trips = field 8;
        server_bytes = field 9;
        client_peak_bytes = field 10;
        client_current_bytes = field 11;
        client_underflows = field 12;
      };
  }

(* {2 Wire-encoded requests as record payloads} *)

let encode_req req =
  let buf = Buffer.create 64 in
  Wire.write_request_sink (Wire.buffer_sink buf) req;
  Buffer.contents buf

let decode_req ~what payload =
  let pos = ref 0 in
  match Wire.read_request_src (Wire.string_source payload pos) with
  | req when !pos = String.length payload -> req
  | _ -> corruptf "%s: trailing bytes in request record" what
  | exception Wire.Protocol_error msg -> corruptf "%s: %s" what msg
  | exception Wire.Incomplete -> corruptf "%s: truncated request record" what

type t = {
  dir : string;
  snapshot_every : int;
  mutable gen : int;
  mutable writer : Segment.writer;
  mutable wal_records : int;
}

(* Rebuild the stores named by a snapshot's reconstruction requests.
   These are replayed with tracing off and no accounting: the snapshot's
   meta record carries the exact digest and ledger state, which is
   restored afterwards — folding the reconstruction into the digests
   would double-count it. *)
let apply_reconstruction state req =
  match Handler.handle state req with
  | Wire.Ok | Wire.Values [] -> ()
  | Wire.Error e -> corruptf "snapshot reconstruction rejected: %s" e
  | _ -> corruptf "snapshot reconstruction: unexpected response"
  | exception Wire.Protocol_error e -> corruptf "snapshot reconstruction failed: %s" e

(* Rebuild a dynamic session by re-dispatching its recorded update
   history.  Unlike store reconstruction this goes through the normal
   dispatcher (the engine rebuilds its own ORAM state and trace from
   scratch — deterministically, so no engine state needs serialising),
   and update responses are ignored: erroring updates (arity mismatch,
   capacity) are recorded too and re-error identically.  Only a rejected
   [Begin_dynamic] is fatal — it means the whole session is missing. *)
let apply_dyn state req =
  match Handler.handle state req with
  | Wire.Error e when (match req with Wire.Begin_dynamic _ -> true | _ -> false) ->
      corruptf "snapshot dynamic replay rejected: %s" e
  | _ -> ()
  | exception Wire.Protocol_error e -> corruptf "snapshot dynamic replay failed: %s" e

let load_snapshot ~dir state =
  match Fsio.read_file (snapshot_path ~dir) with
  | None -> 0
  | Some s ->
      let scan = Segment.parse s in
      (* The snapshot is written atomically, so unlike the journal a torn
         record here is real corruption, not an interrupted append. *)
      if scan.Segment.torn then corruptf "snapshot: torn or corrupt record";
      (match scan.Segment.records with
      | [] -> corruptf "snapshot: empty"
      | meta :: reqs ->
          let m = decode_meta meta in
          let trace = Handler.trace state in
          Trace.set_enabled trace false;
          List.iter
            (fun payload ->
              let req = decode_req ~what:"snapshot" payload in
              if Handler.dynamic_verb req then apply_dyn state req
              else apply_reconstruction state req)
            reqs;
          Trace.set_enabled trace true;
          Trace.load trace m.m_trace;
          Cost.restore (Handler.cost state) m.m_cost;
          m.m_gen)

let replay_wal ~dir ~gen state =
  let scan = Segment.read (wal_path ~dir ~gen) in
  List.iter
    (fun payload ->
      Handler.replay state (decode_req ~what:"journal" payload))
    scan.Segment.records;
  scan

(* Journal files from generations other than the live one are leftovers
   of a crash between the snapshot rename and the old journal's unlink. *)
let remove_stale_wals ~dir ~gen =
  List.iter
    (fun entry ->
      match Scanf.sscanf_opt entry "wal-%d.log%!" (fun g -> g) with
      | Some g when g <> gen -> Fsio.remove_file (Filename.concat dir entry)
      | _ -> ())
    (Fsio.list_dir dir)

let open_ ~data_dir ~snapshot_every ns =
  let dir = tenant_dir ~data_dir ns in
  Fsio.mkdirs dir;
  let state = Handler.create_state () in
  let gen = load_snapshot ~dir state in
  let scan = replay_wal ~dir ~gen state in
  remove_stale_wals ~dir ~gen;
  let writer = Segment.create_writer ~truncate_at:scan.Segment.valid (wal_path ~dir ~gen) in
  let t =
    { dir; snapshot_every; gen; writer; wal_records = List.length scan.Segment.records }
  in
  (t, state)

let snapshot t state =
  let gen' = t.gen + 1 in
  let buf = Buffer.create 4096 in
  let meta =
    {
      m_gen = gen';
      m_trace = Trace.save (Handler.trace state);
      m_cost = Cost.snapshot (Handler.cost state);
    }
  in
  Segment.add_record buf (encode_meta meta);
  List.iter
    (fun (name, blocks) ->
      Segment.add_record buf (encode_req (Wire.Create_store (name, Array.length blocks)));
      (* One record per non-empty slot keeps each record one block wide. *)
      Array.iteri
        (fun i c ->
          if c <> "" then
            Segment.add_record buf
              (encode_req (Wire.Exchange { puts = [ (name, [ (i, c) ]) ]; gets = [] })))
        blocks)
    (Handler.export_stores state);
  (* The dynamic session, if any, is persisted as its full update
     history (the successful [Begin_dynamic] plus every update since):
     re-dispatching it is the only representation that rehydrates the
     engine's ORAM state and trace digests bit-identically.  It follows
     the store records so the stores the session's WAL-replayed updates
     never touch are already in place. *)
  List.iter (fun req -> Segment.add_record buf (encode_req req)) (Handler.export_dyn state);
  Fsio.write_file_atomic ~path:(snapshot_path ~dir:t.dir) (Buffer.contents buf);
  (* The snapshot now durably covers everything: retire the old journal
     and start the one the snapshot's generation names. *)
  Segment.close t.writer;
  Fsio.remove_file (wal_path ~dir:t.dir ~gen:t.gen);
  t.gen <- gen';
  t.writer <- Segment.create_writer (wal_path ~dir:t.dir ~gen:gen');
  t.wal_records <- 0

let journal t ~state req =
  Segment.append t.writer (encode_req req);
  t.wal_records <- t.wal_records + 1;
  if t.snapshot_every > 0 && t.wal_records >= t.snapshot_every then snapshot t state

let sync t = Segment.sync t.writer
let close t = Segment.close t.writer
let wal_records t = t.wal_records
let generation t = t.gen
