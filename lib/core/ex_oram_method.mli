(** Ex-ORAM: the extended ORAM-based method for dynamic databases
    (§V, Algorithms 4 and 5) — the paper's first non-trivial secure FD
    discovery supporting both insertion and deletion.

    The ORAMs store strictly more than {!Or_oram_method}:
    - O^KLF_X : key_X → (label_X, fre_X) — fre_X is the frequency of the
      value under X, needed to know when a deleted record was the last
      holder of its key;
    - O^IKL_X : r[ID] → (key_X, label_X) — the key is needed to find the
      KLF pair of a record being deleted by ID alone.

    Deletion performs the same physical accesses whether the frequency
    hits zero or not (the branch lives in the client's update function),
    so insertions into and deletions from a given attribute set are
    oblivious. *)

open Relation

type handle

val attrs : handle -> Attrset.t
val cardinality : handle -> int
val live_records : handle -> int
(** Number of records currently contained (n after setup, changes with
    insert/delete). *)

val create : Session.t -> Attrset.t -> capacity:int -> handle
(** Empty structure able to hold up to [capacity] records — insertion
    beyond the initial n is the point of the dynamic method, so the
    capacity is chosen up front (ORAM trees are sized publicly). *)

val single : Enc_db.t -> ?capacity:int -> int -> handle
(** Algorithm 4 over a column of the encrypted database. *)

val combine : Session.t -> ?capacity:int -> Attrset.t -> handle -> handle -> handle
(** The |X| ≥ 2 variant of Algorithm 4 (keys from the generators' O^IKL,
    as in Algorithm 2). *)

val insert_value : handle -> row:int -> Value.t -> unit
(** Insert one record given its value under the (single) attribute: two
    frames ({!Oram_rows}). *)

val insert_combined : handle -> gen1:handle -> gen2:handle -> int list -> unit
(** [insert_combined h ~gen1 ~gen2 rows] inserts [rows], in order, in one
    row schedule of [List.length rows + 2] frames ({!Oram_rows}).  The
    generators must already contain the records.  Combined keys use the
    handle's capacity as the public multiplier base, so labels stay
    unique even after the live count grows past the initial n. *)

val delete : handle -> row:int -> unit
(** Algorithm 5: remove record [row]'s contribution to (π_X, |π_X|).
    A no-op (but physically identical) if the record is absent. *)

val label_of_row : handle -> row:int -> int option
(** label_X of a record (one O^IKL access); [None] if absent/deleted. *)

val release : handle -> unit

val oracle : Session.t -> Enc_db.t -> handle Fdbase.Lattice.oracle
