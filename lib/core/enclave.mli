(** SGX-style enclave deployment of the Sort method (§VII-D, Fig. 6b).

    The enclave is modelled as client-side secure memory invisible to S:
    the encrypted cells are still fetched from the server once, but the
    (key, id) array lives decrypted in the enclave, so the sorting network
    runs without any transfer or re-encryption — exactly the two costs the
    paper identifies SGX as eliminating. *)

open Relation

val oracle : Session.t -> Enc_db.t -> Sort_method.handle Fdbase.Lattice.oracle

val discover : ?seed:int -> ?max_lhs:int -> Table.t -> Protocol.report

val partition_cardinality : Table.t -> Attrset.t -> int * float
(** (|π_X|, seconds for the final Algorithm-3 run inside the enclave). *)
