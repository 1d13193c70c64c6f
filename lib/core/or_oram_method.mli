(** Or-ORAM: the original ORAM-based oblivious partition computation
    (Algorithms 1 and 2 of the paper, §IV-C).

    For each attribute set X two PathORAMs are kept:
    - the Key-Label ORAM O^KL_X mapping key_X → label_X (its live-pair
      count is |π_X|);
    - the ID-Label ORAM O^IL_X mapping r[ID] → label_X (it preserves π_X
      and feeds the computation of supersets).

    Every record is processed with exactly one O^KL access (the paper's
    O^KL read and O^KL write, fused into one read-modify-write) and one
    O^IL write, plus, for |X| ≥ 2, one read in each generator's O^IL.
    The server-visible access sequence is a function of n alone; the
    accesses travel one frame per record ({!Oram_rows}).  Streaming
    updates, deletion included, use the extended method
    ({!Ex_oram_method}). *)

open Relation

type handle

val attrs : handle -> Attrset.t
val cardinality : handle -> int
(** |π_X| — held by the client (the server only stores its ciphertext). *)

val single : Enc_db.t -> int -> handle
(** Algorithm 1: build (O^KL, O^IL) for a single attribute by scanning
    the encrypted column. *)

val combine : Session.t -> Attrset.t -> handle -> handle -> handle
(** Algorithm 2: build the ORAMs for X = X1 ∪ X2 from the generators'
    ID-Label ORAMs (Property 1). *)

val label_of_row : handle -> row:int -> int
(** Client-side lookup of label_X for a record (one O^IL access). *)

val release : handle -> unit
(** Free the server-side ORAM trees. *)

val oracle : Session.t -> Enc_db.t -> handle Fdbase.Lattice.oracle
(** The attribute-level oracle for the lattice search. *)
