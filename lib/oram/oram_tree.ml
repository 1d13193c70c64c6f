(* One PathORAM tree (Stefanov et al.): bucket layout, stash, path
   fetch and greedy eviction.  Bucket b (heap order, root = 0) is block
   b of the block store: one ciphertext of the bucket's Z slot
   plaintexts laid side by side, each [flag | body], where the body
   layout belongs to the caller's codec.  Every bucket always holds a
   ciphertext of that one fixed-width plaintext, and every access reads
   and rewrites one whole root-to-leaf path on the server. *)

let z = 4

type ('k, 'v) codec = {
  body_len : int;
  encode : Bytes.t -> int -> 'k -> 'v -> unit;
  decode : Bytes.t -> int -> 'k * 'v;
  leaf : 'k -> 'v -> int;
}

type ('k, 'v) t = {
  codec : ('k, 'v) codec;
  store : Servsim.Block_store.t;
  cipher : Crypto.Cell_cipher.t;
  levels : int; (* L: leaves = 2^L *)
  stash : ('k, 'v) Hashtbl.t; [@secret] (* decrypted residents off the tree *)
  pbuf : Bytes.t; [@secret]
      (* reused plaintext path buffer, L+1 buckets wide: fetch decrypts
         into it, evict encodes into it — no per-bucket plaintext copies *)
}

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* A slot's plaintext: flag, then the codec body. *)
let slot_len codec = 1 + codec.body_len

(* A bucket's plaintext: its Z slots side by side. *)
let bucket_len codec = z * slot_len codec

(* Path-buffer bucket width: [decrypt_to] needs room for the padded CBC
   body, which is also plenty for encoding the plaintext on the way out. *)
let bucket_stride codec = (bucket_len codec / 16 * 16) + 16

(* Bucket index at level [lev] (root = level 0) on the path to [leaf]. *)
let node_at t ~leaf ~lev = (1 lsl lev) - 1 + (leaf lsr (t.levels - lev))

let create server cipher ~name ~capacity ~stash_size codec =
  let levels = max 1 (ceil_log2 capacity) in
  let buckets = (2 lsl levels) - 1 in
  let store = Servsim.Server.create_store server name ~slots:buckets in
  let dummy = String.make (bucket_len codec) '\000' in
  let cts = Crypto.Cell_cipher.encrypt_many cipher (List.init buckets (fun _ -> dummy)) in
  Servsim.Block_store.write_many store (List.mapi (fun bucket ct -> (bucket, ct)) cts);
  {
    codec;
    store;
    cipher;
    levels;
    stash = Hashtbl.create stash_size;
    pbuf = Bytes.create ((levels + 1) * bucket_stride codec);
  }

let levels t = t.levels
let leaves t = 1 lsl t.levels
let store t = t.store
let stash t = t.stash

let resident_bytes t = Hashtbl.length t.stash * t.codec.body_len

(* Buckets of the path to [leaf], root to leaf.  The pinned trace
   digests fix this order. *)
let path_buckets t leaf = List.init (t.levels + 1) (fun lev -> node_at t ~leaf ~lev)

(* Move a fetched path (its buckets in [path_buckets] order) into the
   stash, each bucket decrypted into the reused path buffer: per-bucket
   work allocates only for live slots entering the stash, never for
   dummies. *)
let absorb t blocks =
  let slot_len = slot_len t.codec in
  let bucket_len = bucket_len t.codec in
  let stride = bucket_stride t.codec in
  if List.compare_length_with blocks (t.levels + 1) <> 0 then
    invalid_arg ("Oram_tree.absorb: not one path of store " ^ Servsim.Block_store.name t.store);
  List.iteri
    (fun j ct ->
      let base = j * stride in
      if
        Crypto.Cell_cipher.decrypt_to t.cipher ct
          (t.pbuf
          [@lint.declassify
            "client-local CBC unpadding branches on decrypted plaintext inside the \
             trusted client; the server-visible trace is the fixed path-bucket schedule"])
          base
        <> bucket_len
      then invalid_arg ("Oram_tree: corrupt block in store " ^ Servsim.Block_store.name t.store);
      for s = 0 to z - 1 do
        let off = base + (s * slot_len) in
        if
          ((Bytes.get t.pbuf off = '\001')
          [@lint.declassify
            "client-local stash refill: every slot of the fetched path is decoded; \
             the trace is the fixed path-bucket schedule"])
        then begin
          let key, v = t.codec.decode t.pbuf (off + 1) in
          Hashtbl.replace t.stash key v
        end
      done)
    blocks

(* One batched round trip: a single Exchange frame in remote mode. *)
let fetch t leaf = absorb t (Servsim.Block_store.read_many t.store (path_buckets t leaf))

(* Slot plaintext at [off]: all zeros for a dummy, else flag 1 and the
   codec body. *)
let encode_slot t off slot =
  Bytes.fill t.pbuf off (slot_len t.codec) '\000';
  match
    (slot
    [@lint.declassify
      "every written slot is encoded, resident or dummy: the choice changes only \
       the encrypted plaintext, never the bucket schedule"])
  with
  | None -> ()
  | Some (key, v) ->
      Bytes.set t.pbuf off '\001';
      t.codec.encode t.pbuf (off + 1) key v

let encrypt_bucket t off =
  let len = bucket_len t.codec in
  let ct = Bytes.create (Crypto.Cell_cipher.ciphertext_len ~plaintext_len:len) in
  let _ = Crypto.Cell_cipher.encrypt_from t.cipher t.pbuf ~off ~len ct 0 in
  (* [ct] is freshly allocated and never written again: freezing it
     avoids one copy per bucket. *)
  (Bytes.unsafe_to_string ct [@lint.allow "R2:bytes-unsafe"])

(* Greedy eviction along the path to [leaf]: deepest buckets first.
   Each bucket's slots are encoded into the path buffer and the bucket
   encrypted out of it, leaf to root, which fixes the IV stream and so
   the pinned ciphertexts.  Returns the (bucket, ciphertext) writes for
   the caller to send. *)
let evict t leaf =
  let slot_len = slot_len t.codec in
  let stride = bucket_stride t.codec in
  let buckets = Array.make (t.levels + 1) 0 in
  for lev = t.levels downto 0 do
    let bucket = node_at t ~leaf ~lev in
    (* Stash blocks whose assigned leaf passes through [bucket]. *)
    let chosen = ref [] in
    let count = ref 0 in
    (try
       Hashtbl.iter
         (fun key v ->
           if !count >= z then raise Exit;
           let l = t.codec.leaf key v in
           if
             ((l >= 0 && node_at t ~leaf:l ~lev = bucket)
             [@lint.declassify
               "greedy eviction fills the fetched path's fixed Z slots per bucket; the \
                written bucket set is the whole path regardless of which stash blocks \
                are chosen"])
           then begin
             chosen := (key, v) :: !chosen;
             incr count
           end)
         t.stash
     with Exit -> ());
    List.iter (fun (key, _) -> Hashtbl.remove t.stash key) !chosen;
    let j = t.levels - lev in
    let blocks = Array.make z None in
    List.iteri (fun i b -> blocks.(i) <- Some b) !chosen;
    for s = 0 to z - 1 do
      encode_slot t ((j * stride) + (s * slot_len)) blocks.(s)
    done;
    buckets.(j) <- bucket
  done;
  List.init (t.levels + 1) (fun j -> (buckets.(j), encrypt_bucket t (j * stride)))
