(* AES-128 (FIPS-197).

   Three implementations live here:

   - AES-NI ([Aesni], C stubs in aesni_stubs.c): the hardware rounds,
     chosen by [expand] whenever CPUID reports the instructions.  It runs
     in constant time — no secret-indexed table — and a whole CBC cell is
     one C call (see [Cbc]);

   - the 32-bit T-table implementation ([Table]), the only path on hosts
     without AES-NI: the four round tables Te0..Te3 (and Td0..Td3 for
     decryption) fuse SubBytes, ShiftRows and MixColumns into four table
     lookups plus three xors per state word, so one round is 16 loads and
     ~20 xors instead of ~60 GF(2^8) byte operations.  The key schedule is
     word-based, the per-round state lives in a small per-key scratch
     array, and all byte traffic goes through
     [Bytes.unsafe_get]/[Bytes.unsafe_set] after one bounds check per call
     — encrypting or decrypting a block allocates nothing;

   - [Reference], the original byte-at-a-time FIPS-197 transcription, kept
     as the differential-testing oracle (the test suite cross-checks all
     three on random keys/blocks and on the NIST known-answer sets).

   The S-box is still derived programmatically from the GF(2^8)
   multiplicative inverse and the Rijndael affine transform — no hand-typed
   256-entry table to get wrong — and the T-tables are derived from the
   S-box at module initialisation. *)

let block_size = 16

(* ---- GF(2^8) arithmetic with the Rijndael polynomial x^8+x^4+x^3+x+1 ---- *)

let xtime a =
  let a2 = a lsl 1 in
  if a land 0x80 <> 0 then (a2 lxor 0x1b) land 0xff else a2 land 0xff

let gmul a b =
  (* Russian-peasant multiplication in GF(2^8). *)
  let rec loop a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      loop (xtime a) (b lsr 1) acc
  in
  loop a b 0

(* ---- S-box construction ---- *)

let sbox, inv_sbox =
  let sb = Array.make 256 0 and inv = Array.make 256 0 in
  (* Multiplicative inverses: inv_tbl.(x) * x = 1 for x <> 0. *)
  let inv_tbl = Array.make 256 0 in
  for x = 1 to 255 do
    for y = 1 to 255 do
      if gmul x y = 1 then inv_tbl.(x) <- y
    done
  done;
  let rotl8 b k = ((b lsl k) lor (b lsr (8 - k))) land 0xff in
  for x = 0 to 255 do
    let b = inv_tbl.(x) in
    let s = b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63 in
    sb.(x) <- s
  done;
  Array.iteri (fun x s -> inv.(s) <- x) sb;
  (sb, inv)

(* Lookup tables for the InvMixColumns multipliers, shared by the reference
   decryption rounds and the T-table decryption key schedule. *)
let mul9 = Array.init 256 (fun x -> gmul x 9)
let mul11 = Array.init 256 (fun x -> gmul x 11)
let mul13 = Array.init 256 (fun x -> gmul x 13)
let mul14 = Array.init 256 (fun x -> gmul x 14)

(* ---- Reference implementation (byte-at-a-time FIPS-197 transcription) ----

   The state is kept as a flat 16-byte buffer in FIPS column-major order:
   state.(r + 4*c) is row r, column c. *)

module Reference = struct
  type key = { enc : int array (* 176 bytes: 11 round keys *) }

  let expand raw =
    if String.length raw <> 16 then invalid_arg "Aes128.expand: key must be 16 bytes";
    let raw =
      (raw
      [@lint.declassify
        "client-local AES key schedule; its S-box access pattern is not part of \
         the server-visible trace L(DB)"])
    in
    let w = Array.make 176 0 in
    for i = 0 to 15 do
      w.(i) <- Char.code raw.[i]
    done;
    let rcon = ref 1 in
    for i = 4 to 43 do
      let base = i * 4 and prev = (i - 1) * 4 and back = (i - 4) * 4 in
      let t0, t1, t2, t3 =
        if i mod 4 = 0 then begin
          (* RotWord + SubWord + Rcon *)
          let a = sbox.(w.(prev + 1)) lxor !rcon
          and b = sbox.(w.(prev + 2))
          and c = sbox.(w.(prev + 3))
          and d = sbox.(w.(prev)) in
          rcon := xtime !rcon;
          (a, b, c, d)
        end
        else (w.(prev), w.(prev + 1), w.(prev + 2), w.(prev + 3))
      in
      w.(base) <- w.(back) lxor t0;
      w.(base + 1) <- w.(back + 1) lxor t1;
      w.(base + 2) <- w.(back + 2) lxor t2;
      w.(base + 3) <- w.(back + 3) lxor t3
    done;
    { enc = w }

  let add_round_key st w round =
    let off = round * 16 in
    for i = 0 to 15 do
      st.(i) <- st.(i) lxor w.(off + i)
    done

  let sub_bytes st =
    for i = 0 to 15 do
      st.(i) <- sbox.(st.(i))
    done

  let inv_sub_bytes st =
    for i = 0 to 15 do
      st.(i) <- inv_sbox.(st.(i))
    done

  (* ShiftRows: row r rotates left by r.  Bytes are laid out column-major,
     so row r of column c lives at index r + 4*c. *)
  let shift_rows st =
    let t = st.(1) in
    st.(1) <- st.(5); st.(5) <- st.(9); st.(9) <- st.(13); st.(13) <- t;
    let t = st.(2) and u = st.(6) in
    st.(2) <- st.(10); st.(6) <- st.(14); st.(10) <- t; st.(14) <- u;
    let t = st.(15) in
    st.(15) <- st.(11); st.(11) <- st.(7); st.(7) <- st.(3); st.(3) <- t

  let inv_shift_rows st =
    let t = st.(13) in
    st.(13) <- st.(9); st.(9) <- st.(5); st.(5) <- st.(1); st.(1) <- t;
    let t = st.(2) and u = st.(6) in
    st.(2) <- st.(10); st.(6) <- st.(14); st.(10) <- t; st.(14) <- u;
    let t = st.(3) in
    st.(3) <- st.(7); st.(7) <- st.(11); st.(11) <- st.(15); st.(15) <- t

  let mix_columns st =
    for c = 0 to 3 do
      let i = 4 * c in
      let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
      st.(i) <- xtime a0 lxor (xtime a1 lxor a1) lxor a2 lxor a3;
      st.(i + 1) <- a0 lxor xtime a1 lxor (xtime a2 lxor a2) lxor a3;
      st.(i + 2) <- a0 lxor a1 lxor xtime a2 lxor (xtime a3 lxor a3);
      st.(i + 3) <- (xtime a0 lxor a0) lxor a1 lxor a2 lxor xtime a3
    done

  let inv_mix_columns st =
    for c = 0 to 3 do
      let i = 4 * c in
      let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
      st.(i) <- mul14.(a0) lxor mul11.(a1) lxor mul13.(a2) lxor mul9.(a3);
      st.(i + 1) <- mul9.(a0) lxor mul14.(a1) lxor mul11.(a2) lxor mul13.(a3);
      st.(i + 2) <- mul13.(a0) lxor mul9.(a1) lxor mul14.(a2) lxor mul11.(a3);
      st.(i + 3) <- mul11.(a0) lxor mul13.(a1) lxor mul9.(a2) lxor mul14.(a3)
    done

  let load st src off =
    for i = 0 to 15 do
      st.(i) <- Char.code (Bytes.get src (off + i))
    done

  let store st dst off =
    for i = 0 to 15 do
      Bytes.set dst (off + i) (Char.chr st.(i))
    done

  let encrypt_block { enc = w } ~src ~src_off ~dst ~dst_off =
    let st = Array.make 16 0 in
    load st src src_off;
    add_round_key st w 0;
    for round = 1 to 9 do
      sub_bytes st;
      shift_rows st;
      mix_columns st;
      add_round_key st w round
    done;
    sub_bytes st;
    shift_rows st;
    add_round_key st w 10;
    store st dst dst_off

  let decrypt_block { enc = w } ~src ~src_off ~dst ~dst_off =
    let st = Array.make 16 0 in
    load st src src_off;
    add_round_key st w 10;
    for round = 9 downto 1 do
      inv_shift_rows st;
      inv_sub_bytes st;
      add_round_key st w round;
      inv_mix_columns st
    done;
    inv_shift_rows st;
    inv_sub_bytes st;
    add_round_key st w 0;
    store st dst dst_off
end

(* ---- T-tables ----

   Te0.(x) is the 32-bit column contribution of state byte x in column
   position 0: [2·S(x), S(x), S(x), 3·S(x)] packed big-endian; Te1..Te3 are
   its byte rotations for positions 1..3.  Td0..Td3 are the same for the
   inverse cipher over the inverse S-box with the InvMixColumns multipliers
   [14, 9, 13, 11]. *)

let te0 = Array.make 256 0
let te1 = Array.make 256 0
let te2 = Array.make 256 0
let te3 = Array.make 256 0
let td0 = Array.make 256 0
let td1 = Array.make 256 0
let td2 = Array.make 256 0
let td3 = Array.make 256 0

let () =
  for x = 0 to 255 do
    let s = sbox.(x) in
    let s2 = xtime s in
    let s3 = s2 lxor s in
    te0.(x) <- (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor s3;
    te1.(x) <- (s3 lsl 24) lor (s2 lsl 16) lor (s lsl 8) lor s;
    te2.(x) <- (s lsl 24) lor (s3 lsl 16) lor (s2 lsl 8) lor s;
    te3.(x) <- (s lsl 24) lor (s lsl 16) lor (s3 lsl 8) lor s2;
    let i = inv_sbox.(x) in
    let e = mul14.(i) and n = mul9.(i) and d = mul13.(i) and b = mul11.(i) in
    td0.(x) <- (e lsl 24) lor (n lsl 16) lor (d lsl 8) lor b;
    td1.(x) <- (b lsl 24) lor (e lsl 16) lor (n lsl 8) lor d;
    td2.(x) <- (d lsl 24) lor (b lsl 16) lor (e lsl 8) lor n;
    td3.(x) <- (n lsl 24) lor (d lsl 16) lor (b lsl 8) lor e
  done

(* ---- Word-based key schedule ----

   [ek] and [dk] each hold 11 round keys as 44 big-endian 32-bit words; [dk]
   is the equivalent-inverse-cipher schedule (round keys reversed, with
   InvMixColumns applied to the nine middle ones) so decryption runs the
   same fused-table round as encryption.  [st] is the per-key round-state
   scratch: 8 ints ping-ponged between rounds, preallocated so a block
   operation allocates nothing.  A table key is therefore not shareable
   between domains; clone ciphers per worker (as Sort's [make_worker]
   does). *)

type table_key = { ek : int array; dk : int array; st : int array }

let inv_mix_word w =
  let b0 = w lsr 24
  and b1 = (w lsr 16) land 0xff
  and b2 = (w lsr 8) land 0xff
  and b3 = w land 0xff in
  ((mul14.(b0) lxor mul11.(b1) lxor mul13.(b2) lxor mul9.(b3)) lsl 24)
  lor ((mul9.(b0) lxor mul14.(b1) lxor mul11.(b2) lxor mul13.(b3)) lsl 16)
  lor ((mul13.(b0) lxor mul9.(b1) lxor mul14.(b2) lxor mul11.(b3)) lsl 8)
  lor (mul11.(b0) lxor mul13.(b1) lxor mul9.(b2) lxor mul14.(b3))

let table_expand raw =
  let raw =
    (raw
    [@lint.declassify
      "client-local AES key schedule; its S-box access pattern is not part of \
       the server-visible trace L(DB)"])
  in
  let ek = Array.make 44 0 in
  for i = 0 to 3 do
    ek.(i) <-
      (Char.code raw.[4 * i] lsl 24)
      lor (Char.code raw.[(4 * i) + 1] lsl 16)
      lor (Char.code raw.[(4 * i) + 2] lsl 8)
      lor Char.code raw.[(4 * i) + 3]
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let t = ek.(i - 1) in
    let t =
      if i land 3 = 0 then begin
        (* RotWord + SubWord + Rcon *)
        let r = ((t lsl 8) lor (t lsr 24)) land 0xffffffff in
        let s =
          (sbox.(r lsr 24) lsl 24)
          lor (sbox.((r lsr 16) land 0xff) lsl 16)
          lor (sbox.((r lsr 8) land 0xff) lsl 8)
          lor sbox.(r land 0xff)
        in
        let s = s lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        s
      end
      else t
    in
    ek.(i) <- ek.(i - 4) lxor t
  done;
  let dk = Array.make 44 0 in
  for c = 0 to 3 do
    dk.(c) <- ek.(40 + c);
    dk.(40 + c) <- ek.(c)
  done;
  for r = 1 to 9 do
    for c = 0 to 3 do
      dk.((4 * r) + c) <- inv_mix_word ek.((4 * (10 - r)) + c)
    done
  done;
  { ek; dk; st = Array.make 8 0 }

(* ---- T-table block operations (ranges checked by the dispatch below) ---- *)

let get32 b off =
  (Char.code (Bytes.unsafe_get b off) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (off + 3))

let put32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v lsr 24));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (v land 0xff))

let table_encrypt_block { ek; st; _ } src src_off dst dst_off =
  st.(0) <- get32 src src_off lxor Array.unsafe_get ek 0;
  st.(1) <- get32 src (src_off + 4) lxor Array.unsafe_get ek 1;
  st.(2) <- get32 src (src_off + 8) lxor Array.unsafe_get ek 2;
  st.(3) <- get32 src (src_off + 12) lxor Array.unsafe_get ek 3;
  (* Nine fused T-table rounds, state ping-ponging st.(0..3) <-> st.(4..7);
     round r reads base [bi] and writes base [4 - bi]. *)
  for r = 1 to 9 do
    let bi = (1 - (r land 1)) * 4 in
    let bo = 4 - bi in
    let ko = r * 4 in
    let s0 = Array.unsafe_get st bi
    and s1 = Array.unsafe_get st (bi + 1)
    and s2 = Array.unsafe_get st (bi + 2)
    and s3 = Array.unsafe_get st (bi + 3) in
    Array.unsafe_set st bo
      (Array.unsafe_get te0 (s0 lsr 24)
      lxor Array.unsafe_get te1 ((s1 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((s2 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (s3 land 0xff)
      lxor Array.unsafe_get ek ko);
    Array.unsafe_set st (bo + 1)
      (Array.unsafe_get te0 (s1 lsr 24)
      lxor Array.unsafe_get te1 ((s2 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((s3 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (s0 land 0xff)
      lxor Array.unsafe_get ek (ko + 1));
    Array.unsafe_set st (bo + 2)
      (Array.unsafe_get te0 (s2 lsr 24)
      lxor Array.unsafe_get te1 ((s3 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((s0 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (s1 land 0xff)
      lxor Array.unsafe_get ek (ko + 2));
    Array.unsafe_set st (bo + 3)
      (Array.unsafe_get te0 (s3 lsr 24)
      lxor Array.unsafe_get te1 ((s0 lsr 16) land 0xff)
      lxor Array.unsafe_get te2 ((s1 lsr 8) land 0xff)
      lxor Array.unsafe_get te3 (s2 land 0xff)
      lxor Array.unsafe_get ek (ko + 3))
  done;
  (* Final round (round 9 wrote st.(4..7)): SubBytes + ShiftRows only. *)
  let t0 = Array.unsafe_get st 4
  and t1 = Array.unsafe_get st 5
  and t2 = Array.unsafe_get st 6
  and t3 = Array.unsafe_get st 7 in
  let sb = sbox in
  put32 dst dst_off
    (((Array.unsafe_get sb (t0 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t1 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t2 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t3 land 0xff))
    lxor Array.unsafe_get ek 40);
  put32 dst (dst_off + 4)
    (((Array.unsafe_get sb (t1 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t2 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t3 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t0 land 0xff))
    lxor Array.unsafe_get ek 41);
  put32 dst (dst_off + 8)
    (((Array.unsafe_get sb (t2 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t3 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t0 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t1 land 0xff))
    lxor Array.unsafe_get ek 42);
  put32 dst (dst_off + 12)
    (((Array.unsafe_get sb (t3 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t0 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t1 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t2 land 0xff))
    lxor Array.unsafe_get ek 43)

let table_decrypt_block { dk; st; _ } src src_off dst dst_off =
  st.(0) <- get32 src src_off lxor Array.unsafe_get dk 0;
  st.(1) <- get32 src (src_off + 4) lxor Array.unsafe_get dk 1;
  st.(2) <- get32 src (src_off + 8) lxor Array.unsafe_get dk 2;
  st.(3) <- get32 src (src_off + 12) lxor Array.unsafe_get dk 3;
  (* Equivalent inverse cipher: same round shape as encryption but with the
     Td tables, the InvShiftRows byte-source rotation, and the [dk]
     schedule. *)
  for r = 1 to 9 do
    let bi = (1 - (r land 1)) * 4 in
    let bo = 4 - bi in
    let ko = r * 4 in
    let s0 = Array.unsafe_get st bi
    and s1 = Array.unsafe_get st (bi + 1)
    and s2 = Array.unsafe_get st (bi + 2)
    and s3 = Array.unsafe_get st (bi + 3) in
    Array.unsafe_set st bo
      (Array.unsafe_get td0 (s0 lsr 24)
      lxor Array.unsafe_get td1 ((s3 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((s2 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (s1 land 0xff)
      lxor Array.unsafe_get dk ko);
    Array.unsafe_set st (bo + 1)
      (Array.unsafe_get td0 (s1 lsr 24)
      lxor Array.unsafe_get td1 ((s0 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((s3 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (s2 land 0xff)
      lxor Array.unsafe_get dk (ko + 1));
    Array.unsafe_set st (bo + 2)
      (Array.unsafe_get td0 (s2 lsr 24)
      lxor Array.unsafe_get td1 ((s1 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((s0 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (s3 land 0xff)
      lxor Array.unsafe_get dk (ko + 2));
    Array.unsafe_set st (bo + 3)
      (Array.unsafe_get td0 (s3 lsr 24)
      lxor Array.unsafe_get td1 ((s2 lsr 16) land 0xff)
      lxor Array.unsafe_get td2 ((s1 lsr 8) land 0xff)
      lxor Array.unsafe_get td3 (s0 land 0xff)
      lxor Array.unsafe_get dk (ko + 3))
  done;
  let t0 = Array.unsafe_get st 4
  and t1 = Array.unsafe_get st 5
  and t2 = Array.unsafe_get st 6
  and t3 = Array.unsafe_get st 7 in
  let sb = inv_sbox in
  put32 dst dst_off
    (((Array.unsafe_get sb (t0 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t3 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t2 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t1 land 0xff))
    lxor Array.unsafe_get dk 40);
  put32 dst (dst_off + 4)
    (((Array.unsafe_get sb (t1 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t0 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t3 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t2 land 0xff))
    lxor Array.unsafe_get dk 41);
  put32 dst (dst_off + 8)
    (((Array.unsafe_get sb (t2 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t1 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t0 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t3 land 0xff))
    lxor Array.unsafe_get dk 42);
  put32 dst (dst_off + 12)
    (((Array.unsafe_get sb (t3 lsr 24) lsl 24)
     lor (Array.unsafe_get sb ((t2 lsr 16) land 0xff) lsl 16)
     lor (Array.unsafe_get sb ((t1 lsr 8) land 0xff) lsl 8)
     lor Array.unsafe_get sb (t0 land 0xff))
    lxor Array.unsafe_get dk 43)

(* ---- Dispatch ----

   The key records its implementation, fixed at [expand]: every block
   operation is one match, then AES-NI or the T-table rounds. *)

type key = Aesni of Aesni.schedule | Ttable of table_key

let check_raw raw =
  if String.length raw <> 16 then invalid_arg "Aes128.expand: key must be 16 bytes"

let expand raw =
  check_raw raw;
  if Aesni.available then Aesni (Aesni.expand raw) else Ttable (table_expand raw)

module Table = struct
  let expand raw =
    check_raw raw;
    Ttable (table_expand raw)
end

let check_off name b off =
  if off < 0 || off > Bytes.length b - 16 then
    invalid_arg (Printf.sprintf "Aes128.%s: 16-byte block at offset %d out of range" name off)

let encrypt_block key ~src ~src_off ~dst ~dst_off =
  check_off "encrypt_block" src src_off;
  check_off "encrypt_block" dst dst_off;
  match key with
  | Aesni s -> Aesni.encrypt_block s src src_off dst dst_off
  | Ttable k -> table_encrypt_block k src src_off dst dst_off

let decrypt_block key ~src ~src_off ~dst ~dst_off =
  check_off "decrypt_block" src src_off;
  check_off "decrypt_block" dst dst_off;
  match key with
  | Aesni s -> Aesni.decrypt_block s src src_off dst dst_off
  | Ttable k -> table_decrypt_block k src src_off dst dst_off
