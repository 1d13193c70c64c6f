(** The set-level task (§IV-A, §IV-C(c)): decide whether
    |π_X| = |π_{X∪Y}|.

    In the protocol the two cardinalities live in S only as ciphertexts;
    S sends them to C, C decrypts and replies with a single bit — so S
    learns exactly whether the FD holds (part of the allowed leakage) and
    nothing about the values.  In the simulation the client already holds
    the plaintext counters, so this module's job is to model the channel
    cost of that exchange and to centralise the comparison. *)

val check : Session.t -> int -> int -> bool
(** [check session c1 c2] — [true] iff the FD holds ([c1 = c2]); charges
    two cardinality-ciphertext transfers and one round trip. *)
