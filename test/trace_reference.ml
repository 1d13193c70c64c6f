(* Reference oracle for [Servsim.Trace]'s digests: the byte-at-a-time
   64-bit FNV-1a fold the recorder used before it folded in [Int64]
   locals, kept here verbatim so the fast fold can be checked against
   it (suite wire, "trace fold matches reference").

   Each event folds the store name's bytes, then the op tag, addr and
   len as 8 little-endian bytes each of the 63-bit int (the shape digest
   skips addr); a mark folds its label's bytes.  The state is the 64-bit
   FNV-1a hash kept as two 32-bit halves in immediate ints. *)

type digest = { mutable lo : int; mutable hi : int }

let fnv_offset_lo = 0x84222325
let fnv_offset_hi = 0xcbf29ce4

let fold_byte d byte =
  let lo = d.lo lxor (byte land 0xff) in
  let m = lo * 0x1b3 in
  d.lo <- m land 0xffffffff;
  d.hi <- ((lo lsl 8) + (d.hi * 0x1b3) + (m lsr 32)) land 0xffffffff

let fold_int d v =
  for shift = 0 to 7 do
    fold_byte d ((v lsr (shift * 8)) land 0xff)
  done

let fold_string d s = String.iter (fun c -> fold_byte d (Char.code c)) s

type t = { full : digest; shape : digest; mutable count : int }

let create () =
  {
    full = { lo = fnv_offset_lo; hi = fnv_offset_hi };
    shape = { lo = fnv_offset_lo; hi = fnv_offset_hi };
    count = 0;
  }

let op_tag = function Servsim.Trace.Read -> 1 | Servsim.Trace.Write -> 2

let record t store op ~addr ~len =
  t.count <- t.count + 1;
  fold_string t.full store;
  fold_int t.full (op_tag op);
  fold_int t.full addr;
  fold_int t.full len;
  fold_string t.shape store;
  fold_int t.shape (op_tag op);
  fold_int t.shape len

let mark t label =
  fold_string t.full label;
  fold_string t.shape label

let value d = Int64.logor (Int64.shift_left (Int64.of_int d.hi) 32) (Int64.of_int d.lo)
let full_digest t = value t.full
let shape_digest t = value t.shape
let count t = t.count
