type config = {
  capacity : int;
  key_len : int;
  payload_len : int;
}

type t = {
  cfg : config;
  store : Servsim.Block_store.t;
  cipher : Crypto.Cell_cipher.t;
  sbuf : Bytes.t; [@secret]
      (* reused plaintext scan buffer, [capacity] blocks wide: every access
         decrypts the whole array into it and re-encrypts out of it *)
}

let block_pt_len cfg = 1 + cfg.key_len + cfg.payload_len

(* Scan-buffer slot width: [decrypt_to] needs room for the padded CBC
   body, which is also plenty for encoding the plaintext on the way out. *)
let slot_stride cfg = (block_pt_len cfg / 16 * 16) + 16

let setup ~name cfg server cipher _rand =
  if cfg.capacity < 1 then invalid_arg "Linear_oram.setup: capacity must be >= 1";
  let store = Servsim.Server.create_store server name ~slots:cfg.capacity in
  let dummy = String.make (block_pt_len cfg) '\000' in
  let cts = Crypto.Cell_cipher.encrypt_many cipher (List.init cfg.capacity (fun _ -> dummy)) in
  Servsim.Block_store.write_many store (List.mapi (fun slot ct -> (slot, ct)) cts);
  {
    cfg;
    store;
    cipher;
    sbuf = Bytes.create (cfg.capacity * slot_stride cfg);
  }

(* One full scan: decrypt every slot into the reused buffer, apply the
   logical operation to the matching slot (or claim the first free slot
   on insert) in place, re-encrypt all.  The scan is two batched round
   trips: one read of the whole array, one write to rewrite it.
   Per-block work is offset views into the buffer — the only per-block
   allocation is each outgoing ciphertext. *)
let access t ~key update =
  if String.length key <> t.cfg.key_len then invalid_arg "Linear_oram.access: bad key length";
  let n = t.cfg.capacity in
  let pt_len = block_pt_len t.cfg in
  let stride = slot_stride t.cfg in
  List.iteri
    (fun i ct ->
      if
        Crypto.Cell_cipher.decrypt_to t.cipher ct
          (t.sbuf
          [@lint.declassify
            "client-local CBC unpadding branches on decrypted plaintext inside the \
             trusted client; the server-visible trace is always the full store"])
          (i * stride)
        <> pt_len
      then invalid_arg "Linear_oram: corrupt block")
    (Servsim.Block_store.read_many t.store (List.init n Fun.id));
  let slot_matches off =
    Bytes.get t.sbuf off = '\001'
    &&
    let rec go i = i >= t.cfg.key_len || (Bytes.get t.sbuf (off + 1 + i) = key.[i] && go (i + 1)) in
    go 0
  in
  let found = ref None in
  let found_at = ref (-1) in
  for i = 0 to n - 1 do
    let off = i * stride in
    if
      ((!found_at < 0 && slot_matches off)
      [@lint.declassify
        "linear ORAM reads and rewrites every slot on every access: the server-visible \
         trace is the full store regardless of key or contents"])
    then begin
      found :=
        Some
          ((Bytes.sub_string t.sbuf (off + 1 + t.cfg.key_len) t.cfg.payload_len)
          [@lint.declassify
            "linear ORAM reads and rewrites every slot on every access: the \
             server-visible trace is the full store regardless of key or contents"]);
      found_at := i
    end
  done;
  (match update !found with
  | Some v ->
      if String.length v <> t.cfg.payload_len then
        invalid_arg "Linear_oram.access: bad payload length";
      let slot =
        if !found_at >= 0 then !found_at
        else begin
          let free = ref (-1) in
          for i = n - 1 downto 0 do
            if
              ((Bytes.get t.sbuf (i * stride) = '\000')
              [@lint.declassify
                "linear ORAM reads and rewrites every slot on every access: the \
                 server-visible trace is the full store regardless of key or contents"])
            then free := i
          done;
          if !free < 0 then failwith "Linear_oram: capacity exceeded";
          !free
        end
      in
      let off = slot * stride in
      Bytes.set t.sbuf off '\001';
      Bytes.blit_string key 0 t.sbuf (off + 1) t.cfg.key_len;
      Bytes.blit_string v 0 t.sbuf (off + 1 + t.cfg.key_len) t.cfg.payload_len
  | None ->
      if !found_at >= 0 then Bytes.fill t.sbuf (!found_at * stride) pt_len '\000');
  let ct_len = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:pt_len in
  Servsim.Block_store.write_many t.store
    (List.init n (fun i ->
         let ct = Bytes.create ct_len in
         let _ = Crypto.Cell_cipher.encrypt_from t.cipher t.sbuf ~off:(i * stride) ~len:pt_len ct 0 in
         (* [ct] is freshly allocated and never written again: freezing it
            avoids one copy per block. *)
         (i, (Bytes.unsafe_to_string ct [@lint.allow "R2:bytes-unsafe"]))));
  !found

let read t ~key = access t ~key (fun old -> old)
let write t ~key v = ignore (access t ~key (fun _ -> Some v))
let remove t ~key = ignore (access t ~key (fun _ -> None))

let client_state_bytes _ = 0
