(** Oblivious map: an AVL tree laid over an ORAM (the OMAP construction
    of Oblix [36] / Wang et al.), mapping fixed-width {e value} keys to
    fixed-width payloads.

    Why it exists here: PathORAM needs a client-side position map, and
    for the paper's Key-Label ORAMs the keys are attribute values, so the
    map costs O(n) client memory (the paper accepts this, Fig. 5).  An
    OMAP stores the tree {e nodes} in an integer-addressed ORAM — which
    can itself be the recursive construction — leaving the client with
    only the root pointer and stashes: polylogarithmic memory for
    value-keyed state.

    Obliviousness: every operation performs a {e fixed} number of ORAM
    accesses for a given capacity (real accesses padded with dummies up
    to the worst-case AVL path/rebalance counts), so the server's view
    depends only on (capacity, operation count).

    The node ORAM is abstracted as a record of functions so both
    {!Path_oram} (fast) and {!Recursive_path_oram} (small client) can
    back it. *)

type backing = {
  read : int -> string option;
  write : int -> string -> unit;
  remove : int -> unit;
  dummy : unit -> unit;
  client_bytes : unit -> int;
  destroy : unit -> unit;
}

val path_oram_backing :
  name:string -> capacity:int -> node_len:int ->
  Servsim.Server.t -> Crypto.Cell_cipher.t -> (int -> int) -> backing

val recursive_backing :
  name:string -> capacity:int -> node_len:int ->
  Servsim.Server.t -> Crypto.Cell_cipher.t -> (int -> int) -> backing

type t

type config = {
  capacity : int;  (** maximum number of live keys *)
  key_len : int;
  value_len : int;
}

val node_len : config -> int
(** Byte width of a serialised tree node for this configuration — what
    the backing ORAM must be built with. *)

val create : config -> backing -> t

val find : t -> string -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val insert : t -> string -> string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
(** Insert or replace. *)

val delete : t -> string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val size : t -> int
val client_state_bytes : t -> int

val check_invariants : t -> bool
(** Walks the whole tree (test use): BST order, AVL balance, size. *)

val to_sorted_list : t -> (string * string) list [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
(** In-order contents (test use; not oblivious). *)

val destroy : t -> unit
