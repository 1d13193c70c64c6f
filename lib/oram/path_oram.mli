(** Non-recursive PathORAM (Stefanov et al., JACM 2018) — the construction
    the paper adopts (§III-C, Definition 4), with Z = 4 blocks per bucket
    and the client-side stash capped at 7·⌈log2 n⌉ blocks for reporting
    purposes (the paper's setting, §VII-A).

    The server holds a complete binary tree of buckets in one block store;
    every bucket slot always contains a ciphertext of the same length, and
    every access reads and rewrites exactly one root-to-leaf path, so the
    server's view of an access is (path ciphertexts, fresh re-encryptions)
    for a uniformly random leaf — independent of the key and operation.

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
    uniform integer in [[0, bound)] — pass {!Crypto.Rng.int} or
    {!Crypto.Ctr_prg.int} partially applied. *)

(** {2 Split-phase access}

    An access is two halves around the server: {!plan} picks the leaf
    (the key's assigned leaf, or a uniformly random one for a key not in
    the ORAM), and {!complete} absorbs the fetched path, applies the
    update, remaps the key and returns the path's re-encrypted eviction.
    The caller carries {!fetch_slots} and the eviction in whatever
    frames it likes, under one rule: an access's eviction must reach the
    server before the next access on the same ORAM is fetched (a frame
    applies its puts before its gets, so the same frame will do), and no
    access may be planned before the previous one on the same ORAM has
    completed.  Each ORAM then sees, per access, one path read followed
    by the same path written back. *)

type pending
(** One access in flight. *)

val plan : t -> key:string -> pending
(** @raise Invalid_argument on a key of the wrong length. *)

val plan_dummy : t -> pending
(** A dummy access: a uniformly random leaf, whose {!complete} reads the
    path and writes it back without calling its update. *)

val fetch_slots : pending -> Servsim.Block_store.t * int list
(** The path's slots, root to leaf: the get to carry. *)

val complete :
  pending ->
  string list ->
  (string option -> string option) ->
  string option * (Servsim.Block_store.t * (int * string) list)
[@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
(** [complete p blocks update] takes the blocks read at {!fetch_slots},
    calls [update] once on the key's current payload, stores [Some v]
    or removes the key on [None], and returns the old payload and the
    eviction writes, leaf to root, to put.
    @raise Invalid_argument on a payload of the wrong length or a
    corrupt block. *)

(** {2 Stand-alone accesses}

    Each is {!plan}, one fetch frame, {!complete}, one eviction frame. *)

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

val access_count : t -> int
(** Physical accesses so far: one per {!complete} (so one per {!access}
    and per {!dummy_access} call).  Setup writes are not counted. *)
