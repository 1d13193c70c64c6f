type t = {
  key : Aes128.key; [@secret]
  iv_rng : Bytes.t -> unit;
  iv : Bytes.t; (* 16-byte IV scratch, filled by [iv_rng] per encryption *)
  mutable scratch : Bytes.t; (* grow-on-demand plaintext scratch for [decrypt_many] *)
}

let create ?iv_rng raw_key =
  let key = Aes128.expand raw_key in
  let iv_rng =
    match iv_rng with
    | Some f -> f
    | None ->
        (* Default: deterministic-per-instance splitmix stream seeded from
           the key bytes, good enough for the simulation. *)
        let seed = String.fold_left (fun acc c -> (acc * 257) + Char.code c) 0 raw_key in
        let rng = Rng.create seed in
        fun b -> Rng.fill_bytes rng b
  in
  { key; iv_rng; iv = Bytes.create 16; scratch = Bytes.create 256 }

let ciphertext_len ~plaintext_len = 16 + (plaintext_len / 16 * 16) + 16

(* The whole cell — IV, body, padding — is assembled in [dst] and
   encrypted in place.  The ORAM path codec encodes blocks into a reused
   path buffer and encrypts straight out of it, so the ciphertext cell
   is the only allocation per block. *)
let encrypt_from t src ~off ~len dst dst_off =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Cell_cipher.encrypt_from: source range out of bounds";
  let padded = (len / 16 * 16) + 16 in
  if dst_off < 0 || dst_off + 16 + padded > Bytes.length dst then
    invalid_arg "Cell_cipher.encrypt_from: output range out of bounds";
  t.iv_rng t.iv;
  Bytes.blit t.iv 0 dst dst_off 16;
  Bytes.blit src off dst (dst_off + 16) len;
  Bytes.fill dst (dst_off + 16 + len) (padded - len) (Char.unsafe_chr (padded - len));
  Cbc.encrypt_blocks
    (t.key
     [@lint.declassify
       "client-local AES: constant-time AES-NI, or on hosts without it the T-table \
        fallback, whose table timing is not in the server trace L(DB)"])
    (dst [@lint.declassify "plaintext enters client-local AES here by design; only the ciphertext leaves the client"])
    ~iv_off:dst_off ~off:(dst_off + 16) ~nblocks:(padded / 16);
  16 + padded

(* [encrypt_from] only reads its source, so the plaintext string is
   lent to it without a copy: the ciphertext is the one allocation. *)
let encrypt t plaintext =
  let n = String.length plaintext in
  let out = Bytes.create (ciphertext_len ~plaintext_len:n) in
  let _ = encrypt_from t (Bytes.unsafe_of_string plaintext) ~off:0 ~len:n out 0 in
  Bytes.unsafe_to_string out

let check_ct ciphertext =
  let len = String.length ciphertext in
  if len < 32 then invalid_arg "Cell_cipher.decrypt: too short";
  if (len - 16) mod 16 <> 0 then
    invalid_arg "Cbc.decrypt: length must be a positive multiple of 16";
  len - 16

let decrypt_to t ciphertext dst dst_off =
  let body = check_ct ciphertext in
  if dst_off < 0 || dst_off + body > Bytes.length dst then
    invalid_arg "Cell_cipher.decrypt_to: output range out of bounds";
  let src = Bytes.unsafe_of_string ciphertext in
  Cbc.decrypt_blocks
    (t.key
     [@lint.declassify
       "client-local AES: constant-time AES-NI, or on hosts without it the T-table \
        fallback, whose table timing is not in the server trace L(DB)"])
    ~src ~src_off:16 ~iv:src ~iv_off:0 ~dst ~dst_off ~nblocks:(body / 16);
  Cbc.unpad_len dst ~off:dst_off ~len:body

let decrypt t ciphertext =
  let body = check_ct ciphertext in
  let out = Bytes.create body in
  let n = decrypt_to t ciphertext out 0 in
  Bytes.sub_string out 0 n

let encrypt_many t plaintexts = List.map (encrypt t) plaintexts

let decrypt_many t ciphertexts =
  List.map
    (fun ct ->
      let body = check_ct ct in
      if body > Bytes.length t.scratch then begin
        let cap = ref (2 * Bytes.length t.scratch) in
        while body > !cap do
          cap := 2 * !cap
        done;
        t.scratch <- Bytes.create !cap
      end;
      let n = decrypt_to t ct t.scratch 0 in
      Bytes.sub_string t.scratch 0 n)
    ciphertexts
