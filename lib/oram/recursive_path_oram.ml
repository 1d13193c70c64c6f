(* Recursive PathORAM: "store the position map in a smaller Path ORAM".
   Tree 0 holds the data blocks; tree i >= 1 holds the position map of
   tree i-1, [fanout] positions per block; the top map (positions of the
   last tree) is a small client-side array.  Every tree is one
   {!Oram_tree} of [id | leaf | payload] blocks: the assigned leaf rides
   inside the block so eviction can place stash residents without
   consulting the maps.  An access fetches and evicts one path per tree,
   one read frame and one write frame each: the leaf of tree i-1 is
   stored inside tree i's blocks, so the reads form a data-dependent
   chain. *)

type config = {
  capacity : int;
  payload_len : int;
  fanout : int;
  top_cutoff : int;
}

type t = {
  cfg : config;
  server : Servsim.Server.t;
  rand_int : int -> int;
  trees : (int, int * Bytes.t) Oram_tree.t array;
      (* trees.(0) = data; trees.(i) = map of tree i-1; id -> (leaf, payload) *)
  top : int array; (* positions of the last tree's blocks *)
  session_name : string;
  mutable live : int;
}

let invalid_pos = -1

let codec payload_len =
  {
    Oram_tree.body_len = 8 + 8 + payload_len;
    encode =
      (fun buf off id (l, payload) ->
        Relation.Codec.put_int64 buf off (Int64.of_int id);
        Relation.Codec.put_int64 buf (off + 8) (Int64.of_int l);
        Bytes.blit payload 0 buf (off + 16) payload_len);
    decode =
      (fun buf off ->
        ( Int64.to_int (Relation.Codec.get_int64_bytes buf off),
          ( Int64.to_int (Relation.Codec.get_int64_bytes buf (off + 8)),
            Bytes.sub buf (off + 16) payload_len ) ));
    leaf = (fun _ (l, _) -> l);
  }

let client_state_bytes t =
  Array.fold_left (fun acc tree -> acc + Oram_tree.resident_bytes tree) (Array.length t.top * 8)
    t.trees

let sync_client_cost t =
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.session_name
    (client_state_bytes t)

let setup ~name cfg server cipher rand_int =
  if cfg.capacity < 1 then invalid_arg "Recursive_path_oram.setup: capacity must be >= 1";
  if cfg.fanout < 2 then invalid_arg "Recursive_path_oram.setup: fanout must be >= 2";
  (* A level of one block still has ⌈1/fanout⌉ = 1 > top_cutoff blocks
     above it, so the recursion below would never end. *)
  if cfg.top_cutoff < 1 then invalid_arg "Recursive_path_oram.setup: top_cutoff must be >= 1";
  (* Sizes of the recursion levels: n, ceil(n/f), ceil(n/f^2), ... *)
  let sizes = ref [ cfg.capacity ] in
  while List.hd !sizes > cfg.top_cutoff do
    sizes := ((List.hd !sizes + cfg.fanout - 1) / cfg.fanout) :: !sizes
  done;
  let sizes = Array.of_list (List.rev !sizes) in
  (* sizes.(0) = capacity = data tree; sizes.(i) = block count of map tree
     i (which packs the positions of tree i-1).  A tree exists for every
     entry; the client's top map holds the positions of the last tree —
     sizes.(last) entries, <= top_cutoff by construction. *)
  let ntrees = Array.length sizes in
  let trees =
    Array.init ntrees (fun i ->
        let payload_len = if i = 0 then cfg.payload_len else cfg.fanout * 8 in
        Oram_tree.create server cipher
          ~name:(Printf.sprintf "%s-t%d" name i)
          ~capacity:sizes.(i) ~stash_size:32 (codec payload_len))
  in
  {
    cfg;
    server;
    rand_int;
    trees;
    top = Array.make sizes.(ntrees - 1) invalid_pos;
    session_name = name;
    live = 0;
  }

(* One write frame per tree, sent as soon as the tree's path is evicted. *)
let evict tree leaf = Servsim.Block_store.write_many (Oram_tree.store tree) (Oram_tree.evict tree leaf)

(* Read-and-reassign the position of block [idx] of tree [lvl - 1]:
   returns its old leaf and records [new_leaf].  For lvl = depth the
   positions live in the client's top map; otherwise in tree [lvl]. *)
let rec update_position t ~lvl ~idx ~new_leaf =
  if lvl >= Array.length t.trees then begin
    let old = t.top.(idx) in
    t.top.(idx) <- new_leaf;
    old
  end
  else begin
    let tree = t.trees.(lvl) in
    let blk = idx / t.cfg.fanout and slot = idx mod t.cfg.fanout in
    let my_new = t.rand_int (Oram_tree.leaves tree) in
    let my_old = update_position t ~lvl:(lvl + 1) ~idx:blk ~new_leaf:my_new in
    let my_old =
      if
        ((my_old = invalid_pos)
        [@lint.declassify
          "fresh map blocks get a uniformly random leaf, so the fetched leaf is \
           uniform either way; the trace is one path fetch"])
      then t.rand_int (Oram_tree.leaves tree)
      else my_old
    in
    Oram_tree.fetch tree
      (my_old
      [@lint.declassify
        "Path ORAM invariant: the fetched leaf is uniformly random and independent \
         of the access sequence"]);
    let payload =
      match
        (Hashtbl.find_opt (Oram_tree.stash tree) blk
        [@lint.declassify
          "client-local stash lookup; both branches produce the same single \
           fetch/evict of one path"])
      with
      | Some (_, payload) -> payload
      | None ->
          (* Fresh map block: all positions invalid. *)
          let b = Bytes.create (t.cfg.fanout * 8) in
          for s = 0 to t.cfg.fanout - 1 do
            Relation.Codec.put_int64 b (s * 8) (Int64.of_int invalid_pos)
          done;
          b
    in
    let old = Int64.to_int (Relation.Codec.get_int64_bytes payload (slot * 8)) in
    Relation.Codec.put_int64 payload (slot * 8) (Int64.of_int new_leaf);
    Hashtbl.replace (Oram_tree.stash tree) blk (my_new, payload);
    evict tree
      (my_old
      [@lint.declassify
        "Path ORAM invariant: the fetched leaf is uniformly random and independent \
         of the access sequence"]);
    old
  end

let access t ~key update =
  if key < 0 || key >= t.cfg.capacity then
    invalid_arg "Recursive_path_oram.access: key out of [0, capacity)";
  let data = t.trees.(0) in
  let stash = Oram_tree.stash data in
  let new_leaf = t.rand_int (Oram_tree.leaves data) in
  let old_leaf = update_position t ~lvl:1 ~idx:key ~new_leaf in
  let old_leaf =
    if
      ((old_leaf = invalid_pos)
      [@lint.declassify
        "fresh blocks get a uniformly random leaf, so the fetched leaf is uniform \
         either way; the trace is one path fetch"])
    then t.rand_int (Oram_tree.leaves data)
    else old_leaf
  in
  Oram_tree.fetch data
    (old_leaf
    [@lint.declassify
      "Path ORAM invariant: the fetched leaf is uniformly random and independent \
       of the access sequence"]);
  let old =
    (Option.map (fun (_, p) -> Bytes.to_string p) (Hashtbl.find_opt stash key)
    [@lint.declassify
      "client-local stash hit check; the surrounding fetch/evict trace is one full \
       path either way"])
  in
  (match update old with
  | Some v ->
      if String.length v <> t.cfg.payload_len then
        invalid_arg "Recursive_path_oram.access: bad payload length";
      if old = None then t.live <- t.live + 1;
      Hashtbl.replace stash key (new_leaf, Bytes.of_string v)
  | None ->
      if old <> None then t.live <- t.live - 1;
      Hashtbl.remove stash key);
  evict data
    (old_leaf
    [@lint.declassify
      "Path ORAM invariant: the fetched leaf is uniformly random and independent \
       of the access sequence"]);
  sync_client_cost t;
  old

let read t ~key = access t ~key (fun old -> old)
let write t ~key v = ignore (access t ~key (fun _ -> Some v))
let remove t ~key = ignore (access t ~key (fun _ -> None))

let recursion_depth t = Array.length t.trees

let live_blocks t = t.live

let destroy t =
  Array.iter (fun tree -> Servsim.Server.drop_store t.server (Servsim.Block_store.name (Oram_tree.store tree))) t.trees;
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.session_name 0
