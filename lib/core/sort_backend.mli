(** Storage backends for the sorting-based method (Algorithm 3).

    Algorithm 3 operates on an array of (key_X, r[ID]) pairs; this module
    abstracts where that array lives:

    - {!encrypted}: each element is a fixed-width plaintext encrypted under
      the client's key and stored in a server block store; every read and
      write moves a ciphertext over the channel and re-encrypts — the
      standard outsourced setting;
    - {!enclave}: the array is plaintext inside SGX-style secure memory
      that the server cannot observe; no transfer, no re-encryption — the
      paper's Fig. 6(b) configuration.

    The array is padded to a power of two with [Pad] elements (which sort
    after everything) so the bitonic network depends only on the public
    padded size. *)

open Relation

(** Sort keys.  [V] for raw single-attribute values, [L] for compressed
    label keys (§IV-B), [Pad] for padding (sorts last). *)
type skey =
  | V of Value.t
  | L of int
  | Pad

type elt = { key : skey; id : int }

val compare_skey : skey -> skey -> int
val compare_by_key : elt -> elt -> int
val compare_by_id : elt -> elt -> int
val pad_elt : elt

val elt_width : int
(** Bytes of one encoded element: every element has this width. *)

val chunk_width : int
(** W = 32: the rows {!Sort_method.combine} reads per frame, a label of
    each generator per row.  A fixed constant, not a knob: it fixes the
    frame sequence, hence every trace digest. *)

val buffer_slots : int
(** B = 2W: the most decrypted elements the client holds at once per
    working domain — a frame of a network pass (the block of
    {!Osort.Network.passes}), a chunk of the relabelling scan, of a label
    read or of an initial load.  Constant, so client memory stays O(1)
    (§IV-D(c)). *)

(** Batched access to the array, in the frames of a caller's
    {!Servsim.Frame.t}.  A frame of a network pass reads its at most B
    slots with one [fetch] and writes them back with one [write].  On the encrypted
    backend, [write] encrypts at once and returns the batch, which the
    caller sends as the puts of its next frame, ahead of that frame's
    gets: a Sort call so costs one frame per read batch plus a puts-only
    frame at its end (and one per load chunk of pads only, which reads
    nothing).  The enclave backend reads in place (a [fetch]
    with no get groups) and writes in place (an empty batch). *)
type io = {
  fetch : int list -> elt list Servsim.Frame.read;  (** elements at the given slots, in order *)
  write : (int * elt) list -> Servsim.Frame.puts;
      (** (slot, element) pairs, in order, encrypted now and sent by the
          caller's next frame *)
}

type t = {
  length : int;  (** padded (power-of-two) array length *)
  n : int;  (** number of real elements *)
  io : io;  (** the calling domain's access path *)
  worker : int -> io;
      (** [worker w] — a private access path for parallel worker [w],
          built in the calling domain before the workers start.  The
          encrypted backend gives each worker its own cipher, whose IV
          stream is split off the session's randomness, and raises
          [Invalid_argument] when the session traces or is remote. *)
  charge_buffers : int -> unit;
      (** [charge_buffers k] declares [k] working buffers of
          [min B length] elements live in the client's cost ledger, under
          one session-wide tag ([0] when the Sort call ends).  The
          enclave backend charges nothing. *)
  destroy : unit -> unit;
}

val encrypted : Session.t -> n:int -> t
(** Fresh server-side encrypted array of [length] empty slots: nothing
    is uploaded until the caller writes every slot (as
    {!Sort_method.single} and {!Sort_method.combine} do, rows and pads
    alike).  Holding the array costs the client nothing: its working
    memory is charged per Sort call, through [charge_buffers]. *)

val enclave : n:int -> t
(** Fresh in-enclave plaintext array. *)
