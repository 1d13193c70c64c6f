type op = Read | Write

type event = { store : string; op : op; addr : int; len : int }

(* A 64-bit FNV-1a state kept as two 32-bit halves in immediate ints, so
   the per-byte fold is pure unboxed arithmetic (the Int64 version boxed
   every intermediate — ~150 words of garbage per recorded event on the
   hottest path in the tree).

   With p = 2^40 + 0x1b3 (the FNV-1a prime) and h = hi·2^32 + lo:
     h·p mod 2^64 = (lo·0x1b3) + ((lo·2^8 + hi·0x1b3)·2^32)  [mod 2^64]
   so the low half of the product is (lo·0x1b3) mod 2^32 and the carry
   into the high half is (lo·0x1b3) / 2^32.  lo·0x1b3 fits in 41 bits —
   well inside OCaml's 63-bit ints. *)
type digest = { mutable lo : int; mutable hi : int }

let fnv_offset_lo = 0x84222325
let fnv_offset_hi = 0xcbf29ce4

type name = { str : string; codes : int array }

let name str = { str; codes = Array.init (String.length str) (fun i -> Char.code str.[i]) }

type t = {
  keep_events : bool;
  mutable events_rev : event list;
  mutable count : int;
  full : digest;
  shape : digest;
  mutable enabled : bool;
}

let create ?(keep_events = false) () =
  {
    keep_events;
    events_rev = [];
    count = 0;
    full = { lo = fnv_offset_lo; hi = fnv_offset_hi };
    shape = { lo = fnv_offset_lo; hi = fnv_offset_hi };
    enabled = true;
  }

let fold_byte d byte =
  let lo = d.lo lxor (byte land 0xff) in
  let m = lo * 0x1b3 in
  d.lo <- m land 0xffffffff;
  d.hi <- ((lo lsl 8) + (d.hi * 0x1b3) + (m lsr 32)) land 0xffffffff

let fold_int d v =
  for shift = 0 to 7 do
    fold_byte d ((v lsr (shift * 8)) land 0xff)
  done

(* Digesting is on the hot path of every simulated access; the loop
   bound is the one bounds check. *)
let fold_string d s =
  for i = 0 to String.length s - 1 do
    fold_byte d (Char.code (String.unsafe_get s i))
  done
[@@lint.allow "no-unsafe-casts"]

let fold_codes d (a : int array) =
  for i = 0 to Array.length a - 1 do
    fold_byte d (Array.unsafe_get a i)
  done

let op_tag = function Read -> 1 | Write -> 2

(* The one recorder.  The store name arrives pre-interned (its bytes
   already split into an int array), so the fold does no string setup,
   and no event record is built unless retention is on. *)
let record_name t nm op ~addr ~len =
  if t.enabled then begin
    t.count <- t.count + 1;
    if t.keep_events then
      t.events_rev <- { store = nm.str; op; addr; len } :: t.events_rev;
    fold_codes t.full nm.codes;
    fold_int t.full (op_tag op);
    fold_int t.full addr;
    fold_int t.full len;
    fold_codes t.shape nm.codes;
    fold_int t.shape (op_tag op);
    fold_int t.shape len
  end

let mark t label =
  if t.enabled then begin
    fold_string t.full label;
    fold_string t.shape label
  end

let digest_value d =
  Int64.logor (Int64.shift_left (Int64.of_int d.hi) 32) (Int64.of_int d.lo)

let count t = t.count
let full_digest t = digest_value t.full
let shape_digest t = digest_value t.shape
let events t = List.rev t.events_rev
let set_enabled t b = t.enabled <- b
let enabled t = t.enabled

(* The rolling FNV state is the persistence object: restoring the four
   32-bit halves and the count continues both digest streams exactly
   where they stopped. *)
type persisted = {
  p_count : int;
  p_full_lo : int;
  p_full_hi : int;
  p_shape_lo : int;
  p_shape_hi : int;
}

let save t =
  {
    p_count = t.count;
    p_full_lo = t.full.lo;
    p_full_hi = t.full.hi;
    p_shape_lo = t.shape.lo;
    p_shape_hi = t.shape.hi;
  }

let load t p =
  t.count <- p.p_count;
  t.full.lo <- p.p_full_lo;
  t.full.hi <- p.p_full_hi;
  t.shape.lo <- p.p_shape_lo;
  t.shape.hi <- p.p_shape_hi;
  t.events_rev <- []
