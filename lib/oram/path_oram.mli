(** Non-recursive PathORAM (Stefanov et al., JACM 2018) — the construction
    the paper adopts (§III-C, Definition 4), with Z = 4 blocks per bucket
    and the client-side stash capped at 7·⌈log2 n⌉ blocks for reporting
    purposes (the paper's setting, §VII-A).

    The server holds a complete binary tree of buckets in one block store,
    one block per bucket: every bucket always holds one ciphertext of its
    Z slots (resident or dummy) under a fresh IV, all of the same length,
    and every access reads and rewrites exactly one root-to-leaf path, so
    the server's view of an access is (path ciphertexts, fresh
    re-encryptions) for a uniformly random leaf — independent of the key
    and operation.

    The client holds the position map and the stash; their byte sizes are
    charged to the cost ledger (this is the O(n) client memory of the
    paper's Fig. 5). *)

type t

type config = {
  capacity : int;
  key_len : int;
  payload_len : int;
}

val setup : name:string -> config -> Servsim.Server.t -> Crypto.Cell_cipher.t -> (int -> int) -> t
(** [setup ~name cfg server cipher rand_int] builds the encrypted tree on
    [server] in a fresh store [name].  [rand_int bound] must return a
    uniform integer in [[0, bound)] — e.g. {!Crypto.Rng.int} partially
    applied. *)

(** {2 Accesses}

    An access is a {!Servsim.Frame.read}.  Building it picks the leaf
    (the key's assigned leaf, or a uniformly random one for a key not in
    the ORAM), and its one get is that path.  When the frame answers,
    the access absorbs the path, applies the update, remaps the key and
    gives the path's re-encrypted eviction, leaf to root, to put.  The
    caller sends the eviction in whatever frame it likes, under one
    rule: it must reach the server before the next access on the same
    ORAM is fetched (a frame applies its puts before its gets, so the
    same frame will do), and no access may be built before the previous
    one on the same ORAM has been answered.  Each ORAM then sees, per
    access, one path read followed by the same path written back. *)

val fetch :
  t ->
  key:string ->
  (string option -> string option) ->
  (string option * Servsim.Frame.puts) Servsim.Frame.read
[@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
(** [fetch t ~key update]: once answered, calls [update] once on the
    key's current payload, stores [Some v] or removes the key on
    [None], and gives the old payload and the eviction.
    @raise Invalid_argument on a key of the wrong length, or (when
    answered) on a payload of the wrong length or a corrupt block. *)

val fetch_dummy : t -> (string option * Servsim.Frame.puts) Servsim.Frame.read
(** A dummy access: a uniformly random leaf, whose path is read and
    written back unchanged.  Its payload is [None]. *)

(** {2 Stand-alone accesses}

    Each is {!Servsim.Frame.get} of the access, then
    {!Servsim.Frame.send} of its eviction: two frames. *)

val access : t -> key:string -> (string option -> string option) -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val dummy_access : t -> unit
val read : t -> key:string -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val write : t -> key:string -> string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val remove : t -> key:string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]

val live_blocks : t -> int
val client_state_bytes : t -> int
val destroy : t -> unit

(** {2 Introspection (tests and benches)} *)

val levels : t -> int
(** Tree height L; the tree has 2^L leaves and 2^(L+1)-1 buckets. *)

val max_stash_seen : t -> int
(** High-water mark of stash occupancy (blocks), measured after eviction. *)

val stash_limit : t -> int
(** The paper's 7·⌈log2 capacity⌉ cap. *)

val stash_overflows : t -> int
(** Number of accesses after which the stash exceeded {!stash_limit}. *)

