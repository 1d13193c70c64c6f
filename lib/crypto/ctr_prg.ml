(* Keystream is produced four AES blocks at a time through Aes128 (AES-NI
   where the CPU has it); counters are consumed in the same order as the old one-block
   refill, so the byte stream is unchanged. *)
let refill_len = 64

type t = {
  key : Aes128.key;
  block : Bytes.t; (* current keystream chunk (4 AES blocks) *)
  ctr : Bytes.t; (* 16-byte big-endian counter *)
  mutable used : int; (* bytes of [block] already consumed *)
}

let create seed_key =
  {
    key = Aes128.expand seed_key;
    block = Bytes.create refill_len;
    ctr = Bytes.make 16 '\000';
    used = refill_len;
  }

let bump_counter ctr =
  let rec go i =
    if i >= 0 then begin
      let v = (Char.code (Bytes.get ctr i) + 1) land 0xff in
      Bytes.set ctr i (Char.chr v);
      if v = 0 then go (i - 1)
    end
  in
  go 15

let refill t =
  for b = 0 to (refill_len / 16) - 1 do
    bump_counter t.ctr;
    Aes128.encrypt_block
      (t.key
       [@lint.declassify
         "client-local AES: constant-time AES-NI, or on hosts without it the T-table \
          fallback, whose table timing is not in the server trace L(DB)"])
      ~src:t.ctr ~src_off:0 ~dst:t.block ~dst_off:(16 * b)
  done;
  t.used <- 0

let next_byte t =
  if t.used >= refill_len then refill t;
  let b = Char.code (Bytes.get t.block t.used) in
  t.used <- t.used + 1;
  b

let next64 t =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (next_byte t))
  done;
  !v

let int t bound =
  if bound <= 0 then invalid_arg "Ctr_prg.int: bound must be positive";
  let max62 = 0x3FFFFFFFFFFFFFFF in
  let limit = max62 / bound * bound in
  let rec go () =
    let v = Int64.to_int (Int64.logand (next64 t) 0x3FFFFFFFFFFFFFFFL) in
    if v >= limit then go () else v mod bound
  in
  go ()

let fill_bytes t b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    if t.used >= refill_len then refill t;
    let take = min (refill_len - t.used) (n - !off) in
    Bytes.blit t.block t.used b !off take;
    t.used <- t.used + take;
    off := !off + take
  done

let bytes t n =
  let b = Bytes.create n in
  fill_bytes t b;
  b
