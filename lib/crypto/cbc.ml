(* AES-128-CBC.

   The block primitives ([encrypt_blocks]/[decrypt_blocks]) operate on
   caller-owned buffers and allocate nothing; the string API (PKCS#7
   [encrypt]/[decrypt]) is a thin wrapper that allocates exactly the output
   buffer.  [Cell_cipher] drives the block primitives directly so that a
   whole cell — IV, body and padding — is assembled in one buffer.  On an
   AES-NI key the chain is one C call, made only after the ranges below
   are checked; a T-table key runs the chain here, block by block. *)

(* dst[off..off+15] ^= srcb[src_off..src_off+15]; the ranges may belong to
   the same buffer as long as they do not overlap. *)
let xor16 dst off srcb src_off =
  for i = 0 to 15 do
    Bytes.unsafe_set dst (off + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (off + i))
         lxor Char.code (Bytes.unsafe_get srcb (src_off + i))))
  done

(* Written so no sum can overflow: the AES-NI chain trusts these bounds. *)
let check_range name b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg (Printf.sprintf "Cbc.%s: %d bytes at offset %d out of bounds" name len off)

let check_blocks name b off nblocks =
  if nblocks < 0 || nblocks > Bytes.length b / 16 then
    invalid_arg (Printf.sprintf "Cbc.%s: %d blocks out of bounds" name nblocks);
  check_range name b off (16 * nblocks)

let encrypt_blocks key buf ~iv_off ~off ~nblocks =
  check_range "encrypt_blocks" buf iv_off 16;
  check_blocks "encrypt_blocks" buf off nblocks;
  match key with
  | Aes128.Aesni s -> Aesni.cbc_encrypt s buf iv_off off nblocks
  | Aes128.Ttable _ ->
      for k = 0 to nblocks - 1 do
        let o = off + (16 * k) in
        (* Chain from the IV for the first block, then from the previous
           ciphertext block, which encrypt-in-place left just behind us. *)
        xor16 buf o buf (if k = 0 then iv_off else o - 16);
        Aes128.encrypt_block key ~src:buf ~src_off:o ~dst:buf ~dst_off:o
      done

let decrypt_blocks key ~src ~src_off ~iv ~iv_off ~dst ~dst_off ~nblocks =
  check_blocks "decrypt_blocks" src src_off nblocks;
  check_range "decrypt_blocks" iv iv_off 16;
  check_blocks "decrypt_blocks" dst dst_off nblocks;
  match key with
  | Aes128.Aesni s -> Aesni.cbc_decrypt s src src_off iv iv_off dst dst_off nblocks
  | Aes128.Ttable _ ->
      for k = 0 to nblocks - 1 do
        let so = src_off + (16 * k) and do_ = dst_off + (16 * k) in
        Aes128.decrypt_block key ~src ~src_off:so ~dst ~dst_off:do_;
        if k = 0 then xor16 dst do_ iv iv_off else xor16 dst do_ src (so - 16)
      done

(* PKCS#7: validate the padding of the [len]-byte plaintext at [buf.(off)]
   and return the unpadded length.  Shared by [decrypt] and
   [Cell_cipher.decrypt_to]. *)
let unpad_len buf ~off ~len =
  if len = 0 then invalid_arg "Cbc.decrypt: empty input";
  let k = Char.code (Bytes.get buf (off + len - 1)) in
  if k = 0 || k > 16 || k > len then invalid_arg "Cbc.decrypt: bad padding";
  for i = len - k to len - 1 do
    if Char.code (Bytes.get buf (off + i)) <> k then
      invalid_arg "Cbc.decrypt: bad padding"
  done;
  len - k

let encrypt key ~iv plaintext =
  if String.length iv <> 16 then invalid_arg "Cbc.encrypt: iv must be 16 bytes";
  let n = String.length plaintext in
  let k = 16 - (n mod 16) in
  (* iv scratch ‖ padded body; only the body is returned. *)
  let buf = Bytes.create (16 + n + k) in
  Bytes.blit_string iv 0 buf 0 16;
  Bytes.blit_string plaintext 0 buf 16 n;
  Bytes.fill buf (16 + n) k (Char.chr k);
  encrypt_blocks key buf ~iv_off:0 ~off:16 ~nblocks:((n + k) / 16);
  Bytes.sub_string buf 16 (n + k)

let decrypt key ~iv ciphertext =
  let n = String.length ciphertext in
  if n = 0 || n mod 16 <> 0 then
    invalid_arg "Cbc.decrypt: length must be a positive multiple of 16";
  if String.length iv <> 16 then invalid_arg "Cbc.decrypt: iv must be 16 bytes";
  let src = Bytes.unsafe_of_string ciphertext in
  let out = Bytes.create n in
  decrypt_blocks key ~src ~src_off:0
    ~iv:(Bytes.unsafe_of_string iv)
    ~iv_off:0 ~dst:out ~dst_off:0 ~nblocks:(n / 16);
  Bytes.sub_string out 0 (unpad_len out ~off:0 ~len:n)
