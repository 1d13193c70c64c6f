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

val encode_elt : elt -> string
(** Fixed width ({!elt_width} bytes). *)

val decode_elt : string -> elt
val elt_width : int

type t = {
  length : int;  (** padded (power-of-two) array length *)
  n : int;  (** number of real elements *)
  read : int -> elt;
  write : int -> elt -> unit;
  read_batch : int list -> elt list;
      (** Batched read, one round trip for the whole list (one
          [Multi_get] frame in remote mode).  A compare-exchange fetches
          its two slots in a single frame through this. *)
  write_batch : (int * elt) list -> unit;
      (** Batched write, one round trip for the whole list (one
          [Scatter_put] frame in remote mode). *)
  make_worker : int -> (int -> elt) * (int -> elt -> unit);
      (** [make_worker w] — thread-private read/write closures for worker
          [w] (own cipher instance; no shared mutable state). *)
  client_bytes : int;  (** client working memory the backend needs *)
  destroy : unit -> unit;
}

val encrypted : Session.t -> n:int -> t
(** Fresh server-side encrypted array, all slots initialised to [Pad]. *)

val enclave : n:int -> t
(** Fresh in-enclave plaintext array. *)
