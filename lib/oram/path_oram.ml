(* Non-recursive PathORAM: one {!Oram_tree} of [key | payload] blocks
   plus the client's position map, which also tells eviction where each
   stash resident is assigned.  The tree owns the bucket layout, the
   stash and the fetch/evict path; this module owns the logical access,
   its leaf randomness and the client ledger (stash plus map). *)

type config = {
  capacity : int;
  key_len : int;
  payload_len : int;
}

type t = {
  cfg : config;
  tree : (string, string) Oram_tree.t; (* key | payload blocks *)
  server : Servsim.Server.t;
  name : string;
  rand_int : int -> int;
  pos : (string, int) Hashtbl.t; (* key -> leaf *)
  mutable max_stash : int;
  mutable overflows : int;
}

let stash_limit t = 7 * Oram_tree.levels t.tree

let client_state_bytes t =
  (Hashtbl.length t.pos * (t.cfg.key_len + 8)) + Oram_tree.resident_bytes t.tree

let sync_client_cost t =
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.name (client_state_bytes t)

let setup ~name cfg server cipher rand_int =
  if cfg.capacity < 1 then invalid_arg "Path_oram.setup: capacity must be >= 1";
  let pos = Hashtbl.create (2 * cfg.capacity) in
  let codec =
    {
      Oram_tree.body_len = cfg.key_len + cfg.payload_len;
      encode =
        (fun buf off key payload ->
          Bytes.blit_string key 0 buf off cfg.key_len;
          Bytes.blit_string payload 0 buf (off + cfg.key_len) cfg.payload_len);
      decode =
        (fun buf off ->
          ( Bytes.sub_string buf off cfg.key_len,
            Bytes.sub_string buf (off + cfg.key_len) cfg.payload_len ));
      leaf = (fun key _ -> Option.value (Hashtbl.find_opt pos key) ~default:(-1));
    }
  in
  let tree = Oram_tree.create server cipher ~name ~capacity:cfg.capacity ~stash_size:64 codec in
  { cfg; tree; server; name; rand_int; pos; max_stash = 0; overflows = 0 }

(* The answer to the access of [accessed] (its key and update, or
   [None] for a dummy) along the path to [leaf]. *)
let complete t ~leaf accessed blocks =
  Oram_tree.absorb t.tree blocks;
  let old =
    match accessed with
    | None -> None
    | Some (key, update) ->
        let stash = Oram_tree.stash t.tree in
        let old =
          (Hashtbl.find_opt stash key
          [@lint.declassify
            "client-local stash hit check; the surrounding fetch/evict trace is one full\
              path either way"])
        in
        (match update old with
        | Some v ->
            if String.length v <> t.cfg.payload_len then
              invalid_arg
                (Printf.sprintf "Path_oram.fetch: payload length %d, expected %d (store %s)"
                   (String.length v) t.cfg.payload_len t.name);
            Hashtbl.replace stash key v;
            Hashtbl.replace t.pos key (t.rand_int (Oram_tree.leaves t.tree))
        | None ->
            Hashtbl.remove stash key;
            Hashtbl.remove t.pos key);
        old
  in
  let writes = Oram_tree.evict t.tree leaf in
  let occupancy = Hashtbl.length (Oram_tree.stash t.tree) in
  if occupancy > t.max_stash then t.max_stash <- occupancy;
  if occupancy > stash_limit t then t.overflows <- t.overflows + 1;
  sync_client_cost t;
  (old, [ (Oram_tree.store t.tree, writes) ])

let path_read t ~leaf accessed =
  {
    Servsim.Frame.gets = [ (Oram_tree.store t.tree, Oram_tree.path_buckets t.tree leaf) ];
    finish = complete t ~leaf accessed;
  }

let fetch t ~key update =
  if String.length key <> t.cfg.key_len then
    invalid_arg
      (Printf.sprintf "Path_oram.fetch: key length %d, expected %d (store %s)"
         (String.length key) t.cfg.key_len t.name);
  let leaf =
    match Hashtbl.find_opt t.pos key with
    | Some l -> l
    | None -> t.rand_int (Oram_tree.leaves t.tree)
  in
  path_read t ~leaf (Some (key, update))

let fetch_dummy t = path_read t ~leaf:(t.rand_int (Oram_tree.leaves t.tree)) None

(* A stand-alone access: the fetch and the eviction, two frames. *)
let run r =
  let old, evictions = Servsim.Frame.get r in
  Servsim.Frame.send evictions;
  old

let access t ~key update = run (fetch t ~key update)
let dummy_access t = ignore (run (fetch_dummy t))
let read t ~key = access t ~key (fun old -> old)
let write t ~key v = ignore (access t ~key (fun _ -> Some v))
let remove t ~key = ignore (access t ~key (fun _ -> None))

let live_blocks t = Hashtbl.length t.pos
let levels t = Oram_tree.levels t.tree
let max_stash_seen t = t.max_stash
let stash_overflows t = t.overflows

let destroy t =
  Servsim.Server.drop_store t.server t.name;
  Servsim.Cost.client_set (Servsim.Server.cost t.server) ~tag:t.name 0
