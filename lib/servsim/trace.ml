type op = Read | Write

type event = { store : string; op : op; addr : int; len : int }

(* 64-bit FNV-1a.  The state lives in the recorder as two 32-bit halves
   in immediate ints, which is what [save]/[load] carry; an event is
   folded in [Int64] locals, where one step is a xor and the native
   64-bit multiply.  FNV-1a on a zero byte is a bare multiply by the
   prime, so the zero bytes at the top of an int fold as one multiply by
   prime^k: an address or length of 1-3 bytes costs 2-4 multiplies, not
   8.  Every helper taking or returning an [Int64] is [@inline]; one
   that is not boxes its result, several words per event. *)
type digest = { mutable lo : int; mutable hi : int }

let fnv_offset_lo = 0x84222325
let fnv_offset_hi = 0xcbf29ce4
let prime = 0x100000001b3L

(* [zero_run.(k)] = prime^k: k zero bytes folded at once. *)
let zero_run =
  let a = Array.make 9 1L in
  for k = 1 to 8 do
    a.(k) <- Int64.mul a.(k - 1) prime
  done;
  a

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

let[@inline] load d = Int64.logor (Int64.shift_left (Int64.of_int d.hi) 32) (Int64.of_int d.lo)

let[@inline] store d h =
  d.lo <- Int64.to_int h land 0xffffffff;
  d.hi <- Int64.to_int (Int64.shift_right_logical h 32)

let[@inline] fold_byte h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) prime

(* The loop bound is the one bounds check. *)
let[@inline] fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fold_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h
[@@lint.allow "no-unsafe-casts"]

(* The 8 little-endian bytes of [v]'s 63-bit value: each byte up to the
   last nonzero one, then the zero run in one multiply. *)
let[@inline] fold_int h v =
  let h = ref h and v = ref v and k = ref 8 in
  while !v <> 0 do
    h := fold_byte !h (!v land 0xff);
    v := !v lsr 8;
    decr k
  done;
  Int64.mul !h zero_run.(!k)

let op_tag = function Read -> 1 | Write -> 2

(* The one recorder: no event record is built unless retention is on. *)
let record_name t nm op ~addr ~len =
  if t.enabled then begin
    t.count <- t.count + 1;
    if t.keep_events then
      t.events_rev <- { store = nm; op; addr; len } :: t.events_rev;
    let tag = op_tag op in
    store t.full (fold_int (fold_int (fold_int (fold_string (load t.full) nm) tag) addr) len);
    store t.shape (fold_int (fold_int (fold_string (load t.shape) nm) tag) len)
  end

let mark t label =
  if t.enabled then begin
    store t.full (fold_string (load t.full) label);
    store t.shape (fold_string (load t.shape) label)
  end

let count t = t.count
let full_digest t = load t.full
let shape_digest t = load t.shape
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
