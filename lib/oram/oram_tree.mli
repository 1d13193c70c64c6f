(** One PathORAM tree: the bucket layout (Z = 4 slots per bucket, one
    ciphertext block per bucket, heap order in one block store), the
    stash, the reused plaintext path buffer, path fetch and greedy
    eviction.  A fetch is two steps, {!path_buckets} and {!absorb}, so that a caller can carry the read in
    a frame of its own; {!evict} only computes the writes.  Private to
    the [oram] library: {!Path_oram} is one tree plus a client position
    map, {!Recursive_path_oram} an array of trees each holding the
    position map of the one below.

    The tree never looks inside a block body; the caller's codec lays it
    out and says which leaf each resident is assigned to. *)

type ('k, 'v) codec = {
  body_len : int;
      (** fixed body width; a slot's plaintext is [flag | body], and a
          bucket's is its Z slots side by side *)
  encode : Bytes.t -> int -> 'k -> 'v -> unit;  (** write a body at an offset *)
  decode : Bytes.t -> int -> 'k * 'v;  (** read a body back *)
  leaf : 'k -> 'v -> int;  (** a resident's assigned leaf, or -1 if it has none *)
}

type ('k, 'v) t

val create :
  Servsim.Server.t ->
  Crypto.Cell_cipher.t ->
  name:string ->
  capacity:int ->
  stash_size:int ->
  ('k, 'v) codec ->
  ('k, 'v) t
(** [create server cipher ~name ~capacity ~stash_size codec] builds a
    tree of [max 1 ⌈log2 capacity⌉] levels in a fresh store [name] of
    2^(L+1)-1 blocks, every bucket an encrypted all-dummy bucket.  Every
    block of the store is one cell of Z·(1 + [body_len]) plaintext
    bytes, so all have one length.

    [stash_size] is the stash table's initial size.  Eviction visits the
    stash in [Hashtbl] order, so this size decides which residents each
    bucket takes and hence every ciphertext: each variant passes its own
    constant. *)

val levels : ('k, 'v) t -> int
(** Tree height L; the tree has 2^L leaves and 2^(L+1)-1 buckets. *)

val leaves : ('k, 'v) t -> int
val store : ('k, 'v) t -> Servsim.Block_store.t

val stash : ('k, 'v) t -> ('k, 'v) Hashtbl.t [@@secret]
(** Decrypted residents between fetch and evict (and overflow after it). *)

val resident_bytes : ('k, 'v) t -> int
(** Client bytes of the stash: [body_len] per entry. *)

val path_buckets : ('k, 'v) t -> int -> int list
(** [path_buckets t leaf]: the L+1 buckets of the path to [leaf], root
    to leaf, in the order {!absorb} expects their blocks.  Planning an
    access is choosing the leaf; these are the blocks it fetches. *)

val absorb : ('k, 'v) t -> string list -> unit
(** [absorb t blocks] moves every resident of a fetched path (its bucket
    blocks in {!path_buckets} order) into the stash.  Raises
    [Invalid_argument] on a list that is not one path long or on a block
    that does not decrypt to exactly Z·(1 + [body_len]) bytes. *)

val fetch : ('k, 'v) t -> int -> unit
(** [fetch t leaf] is {!absorb} of the path to [leaf], read in one
    batched [read_many]. *)

val evict : ('k, 'v) t -> int -> (int * string) list
(** [evict t leaf] refills the path to [leaf] greedily, deepest bucket
    first, from the stash, and returns the path's buckets as
    (bucket, ciphertext) writes, leaf to root, one fresh ciphertext per
    bucket, for the caller to send. *)
