type storage =
  | Local_mem of { mutable blocks : string array }
  | Remote_conn of { conn : Remote.t; mutable lengths : int array }
      (* [lengths] shadows the remote block sizes so the byte ledger can
         be maintained without extra round trips. *)

type t = {
  name : string;
  tname : Trace.name; (* interned once; the recorder folds it per event *)
  trace : Trace.t;
  cost : Cost.t;
  on_resize : int -> unit; (* notify owner of byte-count delta *)
  storage : storage;
  mutable len : int;
  mutable bytes : int;
}

let name t = t.name
let length t = t.len
let size_bytes t = t.bytes

let create ~name ~trace ~on_resize ?remote cost =
  let storage =
    match remote with
    | Some conn -> Remote_conn { conn; lengths = Array.make 16 0 }
    | None -> Local_mem { blocks = Array.make 16 "" }
  in
  { name; tname = Trace.name name; trace; cost; on_resize; storage; len = 0; bytes = 0 }

let grow_pow2 cur n =
  let cap = ref (max 16 cur) in
  while !cap < n do
    cap := !cap * 2
  done;
  !cap

let ensure t n =
  (match t.storage with
  | Local_mem s ->
      if n > Array.length s.blocks then begin
        let blocks = Array.make (grow_pow2 (Array.length s.blocks) n) "" in
        Array.blit s.blocks 0 blocks 0 t.len;
        s.blocks <- blocks
      end
  | Remote_conn r ->
      if n > Array.length r.lengths then begin
        let lengths = Array.make (grow_pow2 (Array.length r.lengths) n) 0 in
        Array.blit r.lengths 0 lengths 0 t.len;
        r.lengths <- lengths
      end;
      if n > t.len then ignore (Remote.call r.conn (Wire.Ensure (t.name, n))));
  if n > t.len then begin
    t.len <- n;
    (* Growing is one wire frame in remote mode; charge the same in the
       local sim so both ledgers agree. *)
    if Trace.enabled t.trace then Cost.round_trip t.cost
  end

let check_bounds t i fname =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "Block_store.%s: index %d out of bounds (store %s, len %d)" fname i
         t.name t.len)

(* Store size is state, not cost: the byte ledger must stay accurate even
   while the trace (and with it cost accounting) is suspended, or
   [size_bytes]/[Server.total_bytes] go stale across multi-domain
   sections.  The [delta <> 0] guard keeps the parallel sort workers —
   whose exchanges rewrite fixed-width cells, so delta is always 0 — from
   contending on the owner's shared counter. *)
let resize t delta =
  if delta <> 0 then begin
    t.bytes <- t.bytes + delta;
    t.on_resize delta
  end

(* Apart from [ensure], the two cores below are the only code that
   touches blocks, the trace or the cost ledger, in local and remote
   mode alike: every read is a [read_many] (one [Multi_get] frame
   remotely) and every write a [write_scatter] (one [Scatter_put]
   frame).  The trace records one event per block, in batch order, and
   the ledger one round trip per batch.  While the trace is disabled
   (multi-domain sections), cost accounting is suspended too: the shared
   counters would otherwise bounce between the domains' caches and
   serialise the workers. *)

let read_many t idxs =
  List.iter (fun i -> check_bounds t i "read_many") idxs;
  if idxs = [] then []
  else begin
    let cs =
      match t.storage with
      | Local_mem s -> List.map (fun i -> s.blocks.(i)) idxs
      | Remote_conn r -> Remote.multi_get r.conn ~store:t.name idxs
    in
    if Trace.enabled t.trace then begin
      List.iter2
        (fun i c ->
          Trace.record_name t.trace t.tname Trace.Read ~addr:i ~len:(String.length c);
          Cost.sent_to_client t.cost (String.length c))
        idxs cs;
      Cost.round_trip t.cost
    end;
    cs
  end

(* All stores must live on the same server (they share its trace and
   cost ledger).  The batch is validated whole before anything is
   mutated, mirroring the server-side handler.  Remotely the frame is
   synchronous: the server's acknowledgement arrives before the local
   mirror changes, so a refused write surfaces here. *)
let write_scatter groups =
  match List.filter (fun (_, items) -> items <> []) groups with
  | [] -> ()
  | (t0, _) :: _ as groups ->
      List.iter
        (fun (t, items) -> List.iter (fun (i, _) -> check_bounds t i "write_scatter") items)
        groups;
      (match t0.storage with
      | Local_mem _ -> ()
      | Remote_conn r ->
          Remote.scatter_put r.conn (List.map (fun (t, items) -> (t.name, items)) groups));
      let traced = Trace.enabled t0.trace in
      List.iter
        (fun (t, items) ->
          List.iter
            (fun (i, c) ->
              let old =
                match t.storage with
                | Local_mem s ->
                    let old = String.length s.blocks.(i) in
                    s.blocks.(i) <- c;
                    old
                | Remote_conn r ->
                    let old = r.lengths.(i) in
                    r.lengths.(i) <- String.length c;
                    old
              in
              resize t (String.length c - old);
              if traced then begin
                Trace.record_name t.trace t.tname Trace.Write ~addr:i ~len:(String.length c);
                Cost.sent_to_server t.cost (String.length c)
              end)
            items)
        groups;
      if traced then Cost.round_trip t0.cost

let read t i = List.hd (read_many t [ i ])
let write t i c = write_scatter [ (t, [ (i, c) ]) ]
let write_many t items = write_scatter [ (t, items) ]
