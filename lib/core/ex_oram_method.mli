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

val create : Session.t -> Attrset.t -> capacity:int -> handle
(** Empty structure able to hold up to [capacity] records — insertion
    beyond the initial n is the point of the dynamic method, so the
    capacity is chosen up front (ORAM trees are sized publicly). *)

val single : Enc_db.t -> ?capacity:int -> int -> handle
(** Algorithm 4 over a column of the encrypted database. *)

val combine :
  Session.t -> ?capacity:int -> ?rows:int list -> Attrset.t -> handle -> handle -> handle
(** The |X| ≥ 2 variant of Algorithm 4 (keys from the generators' O^IKL,
    as in Algorithm 2), over [rows] (default: the session's n rows), in
    one row schedule of [List.length rows + 2] frames ({!Oram_rows}).
    The generators must already contain the rows.  Combined keys use the
    handle's capacity as the public multiplier base, so labels stay
    unique even after the live count grows past the initial n. *)

(** {2 Streaming updates}

    Both calls update every set of a list at once, in one frame schedule
    fixed by the list alone (never by the row or its values), and do two
    accesses per set, one to each of its ORAMs.  No frame carries two
    accesses to one ORAM, and each ORAM still sees one path read, then
    the same path written back.  Both check the list first and raise
    [Invalid_argument], before any frame is sent, on a set listed twice. *)

val insert : handle list -> row:int -> Value.t array -> unit
(** [insert hs ~row values] runs Algorithm 4 for one new record over every
    set in [hs], staged by |X|: frame k puts stage k−1's evictions and
    gets the O^KLF and O^IKL paths of every set of size k, and a
    puts-only frame follows, so the call is max|X| + 1 frames.  A
    singleton {c}'s key is [values.(c)]; a combined set's key is
    {!Compression.key_of_labels} of the labels its two generators gave
    the record one stage earlier, so no generator O^IKL is read.
    @raise Invalid_argument if a combined set's generator is not in
    [hs] or [values] lacks a singleton's column. *)

val delete : handle list -> row:int -> unit
(** Algorithm 5: remove record [row]'s contribution to (π_X, |π_X|) for
    every set in [hs], as two fused accesses per set in three frames:
    every O^IKL path (the access removes r[ID] and yields key_X), then
    every O^KLF path (the access decrements fre_X or removes key_X), then
    a puts-only frame.  A record absent from a set costs the same: its
    O^KLF access is a dummy one. *)

val release : handle -> unit

val oracle : Session.t -> Enc_db.t -> handle Fdbase.Lattice.oracle
