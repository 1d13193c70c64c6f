(* Crypto substrate tests: FIPS-197 / NIST known-answer vectors, CBC
   round-trips, PRG behaviour, RNG distribution sanity. *)

open Crypto

let test_fips197_appendix_b () =
  (* FIPS-197 Appendix B worked example. *)
  let key = Hex.decode "2b7e151628aed2a6abf7158809cf4f3c" in
  let pt = Hex.decode "3243f6a8885a308d313198a2e0370734" in
  let k = Aes128.expand key in
  let dst = Bytes.create 16 in
  Aes128.encrypt_block k ~src:(Bytes.of_string pt) ~src_off:0 ~dst ~dst_off:0;
  Alcotest.(check string)
    "ciphertext" "3925841d02dc09fbdc118597196a0b32"
    (Hex.encode (Bytes.to_string dst))

let test_fips197_appendix_c () =
  let key = Hex.decode "000102030405060708090a0b0c0d0e0f" in
  let pt = Hex.decode "00112233445566778899aabbccddeeff" in
  let k = Aes128.expand key in
  let dst = Bytes.create 16 in
  Aes128.encrypt_block k ~src:(Bytes.of_string pt) ~src_off:0 ~dst ~dst_off:0;
  Alcotest.(check string)
    "ciphertext" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Hex.encode (Bytes.to_string dst));
  let back = Bytes.create 16 in
  Aes128.decrypt_block k ~src:dst ~src_off:0 ~dst:back ~dst_off:0;
  Alcotest.(check string) "decrypt" (Hex.encode pt) (Hex.encode (Bytes.to_string back))

(* The two fast-path key builders: the live one (AES-NI where the CPU has
   it) and the T-table fallback. *)
let fast_paths = [ ("live", Aes128.expand); ("table", Aes128.Table.expand) ]

(* Run one AESAVS entry through both fast paths (encrypt + invert) and the
   byte-wise Reference oracle, so every known answer also cross-checks the
   three implementations. *)
let check_kat_entry ~key ~pt ~expect label =
  let kr = Aes128.Reference.expand key in
  let src = Bytes.of_string pt in
  let ct = Bytes.create 16 and back = Bytes.create 16 in
  List.iter
    (fun (path, expand) ->
      let k = expand key in
      let label = label ^ " " ^ path in
      Aes128.encrypt_block k ~src ~src_off:0 ~dst:ct ~dst_off:0;
      Alcotest.(check string) label expect (Hex.encode (Bytes.to_string ct));
      Aes128.decrypt_block k ~src:ct ~src_off:0 ~dst:back ~dst_off:0;
      Alcotest.(check string) (label ^ " inverse") (Hex.encode pt)
        (Hex.encode (Bytes.to_string back)))
    fast_paths;
  Aes128.Reference.encrypt_block kr ~src ~src_off:0 ~dst:ct ~dst_off:0;
  Alcotest.(check string) (label ^ " ref") expect (Hex.encode (Bytes.to_string ct));
  Aes128.Reference.decrypt_block kr ~src:ct ~src_off:0 ~dst:back ~dst_off:0;
  Alcotest.(check string) (label ^ " ref inverse") (Hex.encode pt)
    (Hex.encode (Bytes.to_string back))

(* Full NIST AESAVS known-answer sets (appendices B-D of the AESAVS). *)
let test_aesavs_gfsbox () =
  let zero_key = String.make 16 '\000' in
  List.iter
    (fun (pt, expect) -> check_kat_entry ~key:zero_key ~pt:(Hex.decode pt) ~expect pt)
    Aes_kat.gfsbox

let test_aesavs_keysbox () =
  let zero_pt = String.make 16 '\000' in
  List.iter
    (fun (key, expect) -> check_kat_entry ~key:(Hex.decode key) ~pt:zero_pt ~expect key)
    Aes_kat.keysbox

let test_aesavs_vartxt () =
  let zero_key = String.make 16 '\000' in
  List.iter
    (fun (pt, expect) -> check_kat_entry ~key:zero_key ~pt:(Hex.decode pt) ~expect pt)
    Aes_kat.vartxt

(* CAVP-style Monte Carlo: 1000 chained encryptions; the expected final
   ciphertext was generated with an independent AES implementation
   validated against FIPS-197 and SP 800-38A.  Run on both fast paths and
   the Reference oracle. *)
let test_monte_carlo () =
  let key = Hex.decode "000102030405060708090a0b0c0d0e0f" in
  let seed = Hex.decode "00112233445566778899aabbccddeeff" in
  let expect = "b7449c8da15defeb78dbc57ea81db8ee" in
  List.iter
    (fun (path, expand) ->
      let k = expand key in
      let buf = Bytes.of_string seed in
      for _ = 1 to 1000 do
        Aes128.encrypt_block k ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
      done;
      Alcotest.(check string) ("MCT(1000) " ^ path) expect (Hex.encode (Bytes.to_string buf));
      for _ = 1 to 1000 do
        Aes128.decrypt_block k ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
      done;
      Alcotest.(check string) ("MCT(1000) inverse " ^ path) (Hex.encode seed)
        (Hex.encode (Bytes.to_string buf)))
    fast_paths;
  let kr = Aes128.Reference.expand key in
  let buf = Bytes.of_string seed in
  for _ = 1 to 1000 do
    Aes128.Reference.encrypt_block kr ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
  done;
  Alcotest.(check string) "MCT(1000) ref" expect (Hex.encode (Bytes.to_string buf))

let test_encrypt_decrypt_random_blocks () =
  let rng = Rng.create 42 in
  for _ = 1 to 50 do
    let key = Bytes.to_string (Rng.bytes rng 16) in
    let k = Aes128.expand key in
    let pt = Rng.bytes rng 16 in
    let ct = Bytes.create 16 and back = Bytes.create 16 in
    Aes128.encrypt_block k ~src:pt ~src_off:0 ~dst:ct ~dst_off:0;
    Aes128.decrypt_block k ~src:ct ~src_off:0 ~dst:back ~dst_off:0;
    Alcotest.(check string) "roundtrip" (Bytes.to_string pt) (Bytes.to_string back)
  done

let test_key_length_checked () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes128.expand: key must be 16 bytes")
    (fun () -> ignore (Aes128.expand "short"));
  Alcotest.check_raises "short table key"
    (Invalid_argument "Aes128.expand: key must be 16 bytes")
    (fun () -> ignore (Aes128.Table.expand (String.make 17 'k')))

let test_hex_roundtrip () =
  Alcotest.(check string) "decode-encode" "deadbeef" (Hex.encode (Hex.decode "DEADBEEF"));
  Alcotest.(check string) "empty" "" (Hex.encode (Hex.decode ""));
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"))

let test_cbc_roundtrip_lengths () =
  let k = Aes128.expand (Hex.decode "000102030405060708090a0b0c0d0e0f") in
  let iv = String.make 16 '\007' in
  List.iter
    (fun len ->
      let pt = String.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
      let ct = Cbc.encrypt k ~iv pt in
      Alcotest.(check int) "padded length" ((len / 16 * 16) + 16) (String.length ct);
      Alcotest.(check string) "roundtrip" pt (Cbc.decrypt k ~iv ct))
    [ 0; 1; 15; 16; 17; 31; 32; 33; 100 ]

let test_cbc_nist_vector () =
  (* NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, first block (we add PKCS#7,
     so compare only the first 16 ciphertext bytes). *)
  let k = Aes128.expand (Hex.decode "2b7e151628aed2a6abf7158809cf4f3c") in
  let iv = Hex.decode "000102030405060708090a0b0c0d0e0f" in
  let pt = Hex.decode "6bc1bee22e409f96e93d7e117393172a" in
  let ct = Cbc.encrypt k ~iv pt in
  Alcotest.(check string)
    "first block" "7649abac8119b246cee98e9b12e9197d"
    (Hex.encode (String.sub ct 0 16))

let test_cbc_bad_padding_rejected () =
  let k = Aes128.expand (String.make 16 'k') in
  let iv = String.make 16 '\000' in
  let garbage = String.make 16 'x' in
  match Cbc.decrypt k ~iv garbage with
  | exception Invalid_argument _ -> ()
  | _ ->
      (* Random garbage can decode to valid padding with probability
         ~2^-8 per trailing byte; accept but flag the rarity. *)
      ()

let test_cell_cipher_semantic () =
  let c = Cell_cipher.create (String.make 16 'K') in
  let ct1 = Cell_cipher.encrypt c "hello world" in
  let ct2 = Cell_cipher.encrypt c "hello world" in
  Alcotest.(check bool) "distinct ciphertexts" false (String.equal ct1 ct2);
  Alcotest.(check string) "decrypt 1" "hello world" (Cell_cipher.decrypt c ct1);
  Alcotest.(check string) "decrypt 2" "hello world" (Cell_cipher.decrypt c ct2)

let test_cell_cipher_lengths () =
  let c = Cell_cipher.create (String.make 16 'K') in
  List.iter
    (fun len ->
      let pt = String.make len 'a' in
      let ct = Cell_cipher.encrypt c pt in
      Alcotest.(check int)
        (Printf.sprintf "predicted length for %d" len)
        (Cell_cipher.ciphertext_len ~plaintext_len:len)
        (String.length ct))
    [ 0; 1; 15; 16; 24; 32 ]

let test_ctr_prg_deterministic () =
  let a = Ctr_prg.create (String.make 16 's') in
  let b = Ctr_prg.create (String.make 16 's') in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Ctr_prg.next64 a) (Ctr_prg.next64 b)
  done;
  let c = Ctr_prg.create (String.make 16 't') in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Ctr_prg.next64 a) (Ctr_prg.next64 c)) then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let test_rng_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next64 a) (Rng.next64 b) then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_rng_uniformity_coarse () =
  (* Chi-square-ish sanity: 8 buckets over 8000 draws, each within 3x. *)
  let rng = Rng.create 99 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket balanced" true (c > 700 && c < 1300))
    buckets

(* The block primitives must produce/consume exactly the same bytes as the
   string API they replaced. *)
let test_cbc_blocks_match_string_api () =
  let key = Hex.decode "2b7e151628aed2a6abf7158809cf4f3c" in
  let k = Aes128.expand key in
  let iv = String.init 16 (fun i -> Char.chr (17 * i land 0xff)) in
  List.iter
    (fun len ->
      let pt = String.init len (fun i -> Char.chr ((i * 13) land 0xff)) in
      let expect = Cbc.encrypt k ~iv pt in
      (* encrypt_blocks over a hand-laid-out iv ‖ padded-body buffer *)
      let pad = 16 - (len mod 16) in
      let buf = Bytes.create (16 + len + pad) in
      Bytes.blit_string iv 0 buf 0 16;
      Bytes.blit_string pt 0 buf 16 len;
      Bytes.fill buf (16 + len) pad (Char.chr pad);
      Cbc.encrypt_blocks k buf ~iv_off:0 ~off:16 ~nblocks:((len + pad) / 16);
      Alcotest.(check string)
        (Printf.sprintf "encrypt_blocks len %d" len)
        (Hex.encode expect)
        (Hex.encode (Bytes.sub_string buf 16 (len + pad)));
      let out = Bytes.create (len + pad) in
      Cbc.decrypt_blocks k
        ~src:(Bytes.unsafe_of_string expect [@lint.allow "no-unsafe-casts"])
        ~src_off:0
        ~iv:(Bytes.unsafe_of_string iv [@lint.allow "no-unsafe-casts"])
        ~iv_off:0 ~dst:out ~dst_off:0
        ~nblocks:((len + pad) / 16);
      let n = Cbc.unpad_len out ~off:0 ~len:(len + pad) in
      Alcotest.(check string)
        (Printf.sprintf "decrypt_blocks len %d" len)
        pt (Bytes.sub_string out 0 n))
    [ 0; 1; 15; 16; 17; 31; 32; 33; 100 ]

(* encrypt_to/decrypt_to at a nonzero offset must equal the string API. *)
let test_cell_to_offsets () =
  let mk () = Cell_cipher.create (String.make 16 'K') in
  List.iter
    (fun len ->
      let pt = String.init len (fun i -> Char.chr ((i * 31) land 0xff)) in
      let expect = Cell_cipher.encrypt (mk ()) pt in
      let ctlen = Cell_cipher.ciphertext_len ~plaintext_len:len in
      let buf = Bytes.make (ctlen + 7) 'z' in
      let wrote = Cell_cipher.encrypt_to (mk ()) pt buf 7 in
      Alcotest.(check int) "encrypt_to length" ctlen wrote;
      Alcotest.(check string)
        (Printf.sprintf "encrypt_to len %d" len)
        (Hex.encode expect)
        (Hex.encode (Bytes.sub_string buf 7 ctlen));
      let out = Bytes.make (ctlen - 16 + 3) '\000' in
      let n = Cell_cipher.decrypt_to (mk ()) expect out 3 in
      Alcotest.(check string)
        (Printf.sprintf "decrypt_to len %d" len)
        pt (Bytes.sub_string out 3 n))
    [ 0; 1; 15; 16; 17; 31; 32; 33 ]

(* The bulk entry points must consume the same IV stream and produce the
   same bytes as a sequence of single calls on an identically-keyed
   cipher. *)
let test_cell_many_match_singles () =
  let pts = [ ""; "a"; String.make 15 'b'; String.make 16 'c'; String.make 33 'd' ] in
  let singles = List.map (Cell_cipher.encrypt (Cell_cipher.create (String.make 16 'M'))) pts in
  let bulk = Cell_cipher.encrypt_many (Cell_cipher.create (String.make 16 'M')) pts in
  List.iter2
    (fun a b -> Alcotest.(check string) "encrypt_many" (Hex.encode a) (Hex.encode b))
    singles bulk;
  let c = Cell_cipher.create (String.make 16 'M') in
  List.iter2
    (fun pt ct -> Alcotest.(check string) "decrypt_many" pt ct)
    pts
    (Cell_cipher.decrypt_many c bulk)

let test_cell_decrypt_rejects_malformed () =
  let c = Cell_cipher.create (String.make 16 'K') in
  List.iter
    (fun ct ->
      match Cell_cipher.decrypt c ct with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed ciphertext of length %d" (String.length ct))
    [ ""; "short"; String.make 31 'x'; String.make 40 'y' ]

let qcheck_ttable_vs_reference =
  QCheck.Test.make ~name:"T-table vs Reference (random key/block)" ~count:300
    QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)))
    (fun (key, pt) ->
      let k = Aes128.Table.expand key in
      let kr = Aes128.Reference.expand key in
      let src = Bytes.of_string pt in
      let a = Bytes.create 16 and b = Bytes.create 16 in
      Aes128.encrypt_block k ~src ~src_off:0 ~dst:a ~dst_off:0;
      Aes128.Reference.encrypt_block kr ~src ~src_off:0 ~dst:b ~dst_off:0;
      let enc_ok = Bytes.equal a b in
      Aes128.decrypt_block k ~src:a ~src_off:0 ~dst:b ~dst_off:0;
      enc_ok && Bytes.equal b src)

(* {2 AES-NI against the T-table and the Reference oracle}

   [Aes128.expand] picks AES-NI where the CPU has it; [Table.expand]
   always builds a T-table key.  On a host without AES-NI both are the
   T-table and these tests compare it with itself and the oracle. *)

let test_table_key_is_table () =
  match Aes128.Table.expand (String.make 16 'k') with
  | Aes128.Ttable _ -> ()
  | Aes128.Aesni _ -> Alcotest.fail "Table.expand built an AES-NI key"

(* One block at arbitrary offsets inside larger buffers, through all
   three implementations, both directions. *)
let qcheck_live_vs_table_vs_reference =
  QCheck.Test.make ~name:"live vs T-table vs Reference (random key/block/offsets)"
    ~count:500
    QCheck.(
      quad (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16))
        (int_bound 40) (int_bound 40))
    (fun (key, pt, src_off, dst_off) ->
      let src = Bytes.make (src_off + 16 + 3) '\x5a' in
      Bytes.blit_string pt 0 src src_off 16;
      let run enc dec =
        let ct = Bytes.make (dst_off + 16 + 5) '\xa5' in
        enc ~src ~src_off ~dst:ct ~dst_off;
        let back = Bytes.make (src_off + 16 + 3) '\x5a' in
        dec ~src:ct ~src_off:dst_off ~dst:back ~dst_off:src_off;
        (ct, back)
      in
      let live = Aes128.expand key and table = Aes128.Table.expand key in
      let kr = Aes128.Reference.expand key in
      let cl, bl = run (Aes128.encrypt_block live) (Aes128.decrypt_block live) in
      let ct, bt = run (Aes128.encrypt_block table) (Aes128.decrypt_block table) in
      let cr, br =
        run (Aes128.Reference.encrypt_block kr) (Aes128.Reference.decrypt_block kr)
      in
      Bytes.equal cl ct && Bytes.equal ct cr && Bytes.equal bl src && Bytes.equal bt src
      && Bytes.equal br src)

(* CBC chains of 1..64 blocks through the live chain (one C call on an
   AES-NI host) and the block-by-block OCaml chain of a T-table key:
   in-place encryption after an IV, a separate-buffer decryption, and the
   cell layout, where the IV aliases the ciphertext buffer just before
   the body. *)
let test_cbc_chains_live_vs_table () =
  let rng = Rng.create 11 in
  for nblocks = 1 to 64 do
    let key = Bytes.to_string (Rng.bytes rng 16) in
    let live = Aes128.expand key and table = Aes128.Table.expand key in
    let lead = Rng.int rng 9 in
    (* lead bytes ‖ IV ‖ body ‖ 3 trailing bytes *)
    let layout = Bytes.cat (Rng.bytes rng (lead + 16 + (16 * nblocks))) (Bytes.make 3 't') in
    let enc k =
      let b = Bytes.copy layout in
      Cbc.encrypt_blocks k b ~iv_off:lead ~off:(lead + 16) ~nblocks;
      b
    in
    let el = enc live and et = enc table in
    let label = Printf.sprintf "%d blocks" nblocks in
    Alcotest.(check string) (label ^ " encrypt") (Hex.encode (Bytes.to_string et))
      (Hex.encode (Bytes.to_string el));
    (* Cell layout: iv = src, body right after it. *)
    let dec_cell k =
      let out = Bytes.make (16 * nblocks + 2) '\000' in
      Cbc.decrypt_blocks k ~src:el ~src_off:(lead + 16) ~iv:el ~iv_off:lead ~dst:out
        ~dst_off:1 ~nblocks;
      Bytes.sub_string out 1 (16 * nblocks)
    in
    let body = Bytes.sub_string layout (lead + 16) (16 * nblocks) in
    Alcotest.(check string) (label ^ " cell decrypt live") body (dec_cell live);
    Alcotest.(check string) (label ^ " cell decrypt table") body (dec_cell table);
    (* Separate IV buffer. *)
    let iv = Bytes.sub el lead 16 and ct = Bytes.sub el (lead + 16) (16 * nblocks) in
    let dec_sep k =
      let out = Bytes.create (16 * nblocks) in
      Cbc.decrypt_blocks k ~src:ct ~src_off:0 ~iv ~iv_off:0 ~dst:out ~dst_off:0 ~nblocks;
      Bytes.to_string out
    in
    Alcotest.(check string) (label ^ " decrypt live") body (dec_sep live);
    Alcotest.(check string) (label ^ " decrypt table") body (dec_sep table)
  done

(* Every range is checked in OCaml before any implementation runs: an
   out-of-range offset or block count raises and writes nothing. *)
let test_out_of_range_rejected () =
  List.iter
    (fun (path, expand) ->
      let k = expand (String.make 16 'r') in
      let buf = Bytes.make 64 'x' in
      let untouched label f =
        (match f () with
        | () -> Alcotest.failf "%s %s: accepted" path label
        | exception Invalid_argument _ -> ());
        Alcotest.(check string) (path ^ " " ^ label ^ " untouched") (String.make 64 'x')
          (Bytes.to_string buf)
      in
      List.iter
        (fun off ->
          let s = string_of_int off in
          untouched ("encrypt_block src " ^ s) (fun () ->
              Aes128.encrypt_block k ~src:buf ~src_off:off ~dst:buf ~dst_off:0);
          untouched ("encrypt_block dst " ^ s) (fun () ->
              Aes128.encrypt_block k ~src:buf ~src_off:0 ~dst:buf ~dst_off:off);
          untouched ("decrypt_block " ^ s) (fun () ->
              Aes128.decrypt_block k ~src:buf ~src_off:off ~dst:buf ~dst_off:0);
          untouched ("encrypt_blocks iv " ^ s) (fun () ->
              Cbc.encrypt_blocks k buf ~iv_off:off ~off:16 ~nblocks:1);
          untouched ("encrypt_blocks off " ^ s) (fun () ->
              Cbc.encrypt_blocks k buf ~iv_off:0 ~off ~nblocks:1);
          untouched ("decrypt_blocks src " ^ s) (fun () ->
              Cbc.decrypt_blocks k ~src:buf ~src_off:off ~iv:buf ~iv_off:0 ~dst:buf
                ~dst_off:0 ~nblocks:1);
          untouched ("decrypt_blocks iv " ^ s) (fun () ->
              Cbc.decrypt_blocks k ~src:buf ~src_off:0 ~iv:buf ~iv_off:off ~dst:buf
                ~dst_off:16 ~nblocks:1);
          untouched ("decrypt_blocks dst " ^ s) (fun () ->
              Cbc.decrypt_blocks k ~src:buf ~src_off:0 ~iv:buf ~iv_off:0 ~dst:buf
                ~dst_off:off ~nblocks:1))
        [ -1; 49; 64; max_int; max_int - 8; min_int ];
      (* Block counts that overrun, are negative, or wrap 16 * nblocks
         around to a small length. *)
      List.iter
        (fun nblocks ->
          let s = string_of_int nblocks in
          untouched ("encrypt_blocks nblocks " ^ s) (fun () ->
              Cbc.encrypt_blocks k buf ~iv_off:0 ~off:16 ~nblocks);
          untouched ("decrypt_blocks nblocks " ^ s) (fun () ->
              Cbc.decrypt_blocks k ~src:buf ~src_off:16 ~iv:buf ~iv_off:0 ~dst:buf
                ~dst_off:16 ~nblocks))
        [ -1; 4; 5; (max_int / 16) + 2; (1 lsl 59) + 1; min_int ])
    fast_paths

(* Block and chain operations allocate nothing on either path: a loop of
   1000 calls allocates exactly what an empty loop does. *)
let test_zero_alloc () =
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (path, expand) ->
      let k = expand (String.make 16 'z') in
      let buf = Bytes.make 160 'p' and out = Bytes.create 160 in
      let loop body () =
        for _ = 1 to 1000 do
          body ()
        done
      in
      let empty = words (loop ignore) in
      let check label body =
        body ();
        Alcotest.(check (float 0.)) (path ^ " " ^ label) empty (words (loop body))
      in
      check "encrypt_block" (fun () ->
          Aes128.encrypt_block k ~src:buf ~src_off:16 ~dst:buf ~dst_off:16);
      check "decrypt_block" (fun () ->
          Aes128.decrypt_block k ~src:buf ~src_off:16 ~dst:out ~dst_off:0);
      check "encrypt_blocks" (fun () ->
          Cbc.encrypt_blocks k buf ~iv_off:0 ~off:16 ~nblocks:9);
      check "decrypt_blocks" (fun () ->
          Cbc.decrypt_blocks k ~src:buf ~src_off:16 ~iv:buf ~iv_off:0 ~dst:out ~dst_off:0
            ~nblocks:9))
    fast_paths

let qcheck_cbc_roundtrip =
  QCheck.Test.make ~name:"cbc roundtrip (arbitrary strings)" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun pt ->
      let k = Aes128.expand (String.make 16 'q') in
      let iv = String.make 16 '\001' in
      String.equal pt (Cbc.decrypt k ~iv (Cbc.encrypt k ~iv pt)))

let qcheck_cell_roundtrip =
  QCheck.Test.make ~name:"cell cipher roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun pt ->
      let c = Cell_cipher.create (String.make 16 'w') in
      String.equal pt (Cell_cipher.decrypt c (Cell_cipher.encrypt c pt)))

(* Ct.equal must agree with the variable-time library equality on
   every input pair — it only changes *how long* the answer takes, never
   the answer. *)
let qcheck_ct_equal_agrees =
  QCheck.Test.make ~name:"Ct.equal agrees with Bytes.equal" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(0 -- 64)))
    (fun (a, b) ->
      let direct = Crypto.Ct.equal a b = String.equal a b in
      let as_bytes =
        Crypto.Ct.equal_bytes (Bytes.of_string a) (Bytes.of_string b)
        = Bytes.equal (Bytes.of_string a) (Bytes.of_string b)
      in
      (* Also exercise the all-but-last-byte-equal corner, where a lazy
         implementation would bail early. *)
      let tweaked =
        let b' = Bytes.of_string a in
        if Bytes.length b' = 0 then true
        else begin
          let last = Bytes.length b' - 1 in
          Bytes.set b' last (Char.chr (Char.code (Bytes.get b' last) lxor 1));
          not (Crypto.Ct.equal a (Bytes.to_string b'))
        end
      in
      direct && as_bytes && tweaked)

let test_ct_equal_basics () =
  Alcotest.(check bool) "empty equal" true (Crypto.Ct.equal "" "");
  Alcotest.(check bool) "equal" true (Crypto.Ct.equal "secret-tag" "secret-tag");
  Alcotest.(check bool) "first byte differs" false (Crypto.Ct.equal "Xecret" "secret");
  Alcotest.(check bool) "last byte differs" false (Crypto.Ct.equal "secreT" "secret");
  Alcotest.(check bool) "length differs" false (Crypto.Ct.equal "secret" "secret!")

let suite =
  [
    Alcotest.test_case "FIPS-197 appendix B" `Quick test_fips197_appendix_b;
    Alcotest.test_case "FIPS-197 appendix C" `Quick test_fips197_appendix_c;
    Alcotest.test_case "NIST AESAVS GFSbox" `Quick test_aesavs_gfsbox;
    Alcotest.test_case "NIST AESAVS KeySbox" `Quick test_aesavs_keysbox;
    Alcotest.test_case "NIST AESAVS VarTxt" `Quick test_aesavs_vartxt;
    Alcotest.test_case "Monte Carlo 1000 iterations" `Quick test_monte_carlo;
    Alcotest.test_case "random block roundtrips" `Quick test_encrypt_decrypt_random_blocks;
    Alcotest.test_case "key length validation" `Quick test_key_length_checked;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "CBC roundtrip lengths" `Quick test_cbc_roundtrip_lengths;
    Alcotest.test_case "CBC NIST SP800-38A" `Quick test_cbc_nist_vector;
    Alcotest.test_case "CBC bad padding" `Quick test_cbc_bad_padding_rejected;
    Alcotest.test_case "CBC block primitives match string API" `Quick
      test_cbc_blocks_match_string_api;
    Alcotest.test_case "cell encrypt_to/decrypt_to offsets" `Quick test_cell_to_offsets;
    Alcotest.test_case "cell bulk APIs match singles" `Quick test_cell_many_match_singles;
    Alcotest.test_case "cell decrypt rejects malformed" `Quick
      test_cell_decrypt_rejects_malformed;
    Alcotest.test_case "cell cipher semantic security shape" `Quick test_cell_cipher_semantic;
    Alcotest.test_case "cell cipher length prediction" `Quick test_cell_cipher_lengths;
    Alcotest.test_case "CTR PRG determinism" `Quick test_ctr_prg_deterministic;
    Alcotest.test_case "rng range" `Quick test_rng_range;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng coarse uniformity" `Quick test_rng_uniformity_coarse;
    Alcotest.test_case "Ct.equal basics" `Quick test_ct_equal_basics;
    Alcotest.test_case "Table.expand builds a T-table key" `Quick test_table_key_is_table;
    Alcotest.test_case "CBC chains 1-64 blocks: live = T-table" `Quick
      test_cbc_chains_live_vs_table;
    Alcotest.test_case "out-of-range offsets and block counts rejected" `Quick
      test_out_of_range_rejected;
    Alcotest.test_case "block and chain ops allocate nothing" `Quick test_zero_alloc;
    QCheck_alcotest.to_alcotest qcheck_live_vs_table_vs_reference;
    QCheck_alcotest.to_alcotest qcheck_ttable_vs_reference;
    QCheck_alcotest.to_alcotest qcheck_cbc_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_cell_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ct_equal_agrees;
  ]
