(** Recursive PathORAM over integer keys.

    The paper's methods keep a client-side position map of O(n) entries
    per ORAM and note (§VII-C) that "the storage requirement can be
    reduced by adopting more advanced ORAMs at the cost of runtime".
    This module is that trade-off, concretely: positions of the data tree
    are packed [fanout] to a block and stored in a smaller PathORAM,
    recursively, until the top-level map fits under [top_cutoff] entries,
    which the client holds directly.  Client state shrinks from O(n) to
    O(log n) blocks (top map + stashes); every logical access costs one
    path per recursion level instead of one.

    Keys are integers in [0, capacity) — sufficient for the ID-keyed
    ORAMs of the FD methods (r[ID] is a row number).  The value-keyed
    Key-Label ORAMs would additionally need an oblivious map on top; that
    is out of the paper's scope and ours.

    Each server-side block stores its own assigned leaf alongside the
    payload, so eviction never needs map lookups for stash residents. *)

type t

type config = {
  capacity : int;
  payload_len : int;
  fanout : int;  (** positions packed per map block (e.g. 16) *)
  top_cutoff : int;  (** max entries of the client-held top map (e.g. 64) *)
}

val setup : name:string -> config -> Servsim.Server.t -> Crypto.Cell_cipher.t -> (int -> int) -> t
(** Builds one tree per recursion level, each in a fresh store
    [name-t<i>].  Raises [Invalid_argument] unless [capacity >= 1],
    [fanout >= 2] and [top_cutoff >= 1]. *)

val access : t -> key:int -> (string option -> string option) -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val read : t -> key:int -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val write : t -> key:int -> string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val remove : t -> key:int -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]

val recursion_depth : t -> int
(** Number of ORAM trees (data tree + map trees). *)

val client_state_bytes : t -> int
val live_blocks : t -> int
val destroy : t -> unit
