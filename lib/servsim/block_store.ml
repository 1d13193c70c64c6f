type storage =
  | Local_mem of string array
  | Remote_conn of { conn : Remote.t; lengths : int array }
      (* [lengths] shadows the remote block sizes so the byte ledger can
         be maintained without extra round trips. *)

type t = {
  name : string;
  trace : Trace.t;
  cost : Cost.t;
  on_resize : int -> unit; (* notify owner of byte-count delta *)
  storage : storage;
  len : int;
  mutable bytes : int;
}

let name t = t.name
let length t = t.len
let size_bytes t = t.bytes

let create ~name ~slots ~trace ~on_resize ?remote cost =
  let storage =
    match remote with
    | Some conn -> Remote_conn { conn; lengths = Array.make slots 0 }
    | None -> Local_mem (Array.make slots "")
  in
  { name; trace; cost; on_resize; storage; len = slots; bytes = 0 }

let check_bounds t i =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "Block_store.exchange: index %d out of bounds (store %s, len %d)" i t.name
         t.len)

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

let block t i =
  match t.storage with
  | Local_mem blocks -> blocks.(i)
  | Remote_conn _ -> invalid_arg "Block_store.exchange: stores of two servers in one frame"

let put t i c =
  let old =
    match t.storage with
    | Local_mem blocks ->
        let old = String.length blocks.(i) in
        blocks.(i) <- c;
        old
    | Remote_conn r ->
        let old = r.lengths.(i) in
        r.lengths.(i) <- String.length c;
        old
  in
  resize t (String.length c - old)

(* The one core: the only code that touches blocks, the trace or the
   cost ledger, in local and remote mode alike.  Every store must live on
   the same server (they share its trace and cost ledger).  The frame is
   checked whole before anything is sent or mutated, mirroring the
   server-side handler; remotely it is synchronous, so a refused frame
   surfaces here before the local mirror changes.  The trace records one
   event per block, puts before gets, and the ledger one round trip per
   frame.  While the trace is disabled (multi-domain sections), cost
   accounting is suspended too: the shared counters would otherwise
   bounce between the domains' caches and serialise the workers. *)
let exchange ~puts ~gets =
  let busy groups = List.exists (fun (_, xs) -> xs <> []) groups in
  if not (busy puts || busy gets) then []
  else begin
    List.iter (fun (t, items) -> List.iter (fun (i, _) -> check_bounds t i) items) puts;
    List.iter (fun (t, idxs) -> List.iter (fun i -> check_bounds t i) idxs) gets;
    let t0 = match puts with (t, _) :: _ -> t | [] -> fst (List.hd gets) in
    let fetched =
      match t0.storage with
      | Local_mem _ -> None
      | Remote_conn r ->
          Some
            (Remote.exchange r.conn
               ~puts:(List.map (fun (t, items) -> (t.name, items)) puts)
               ~gets:(List.map (fun (t, idxs) -> (t.name, idxs)) gets))
    in
    let traced = Trace.enabled t0.trace in
    List.iter
      (fun (t, items) ->
        List.iter
          (fun (i, c) ->
            put t i c;
            if traced then begin
              Trace.record_name t.trace t.name Trace.Write ~addr:i ~len:(String.length c);
              Cost.sent_to_server t.cost (String.length c)
            end)
          items)
      puts;
    let values =
      match (fetched, gets) with
      | Some vs, _ -> vs
      | None, [ (t, idxs) ] -> List.map (fun i -> block t i) idxs
      | None, _ -> List.concat_map (fun (t, idxs) -> List.map (fun i -> block t i) idxs) gets
    in
    if traced then begin
      (* Walk the gets alongside the blocks they returned. *)
      ignore
        (List.fold_left
           (fun vs (t, idxs) ->
             List.fold_left
               (fun vs i ->
                 match vs with
                 | c :: rest ->
                     Trace.record_name t.trace t.name Trace.Read ~addr:i ~len:(String.length c);
                     Cost.sent_to_client t.cost (String.length c);
                     rest
                 | [] -> [])
               vs idxs)
           values gets);
      Cost.round_trip t0.cost
    end;
    values
  end

let read_many t idxs = exchange ~puts:[] ~gets:[ (t, idxs) ]
let read t i = List.hd (read_many t [ i ])
let write_many t items = ignore (exchange ~puts:[ (t, items) ] ~gets:[])
