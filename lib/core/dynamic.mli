(** Dynamic maintenance session (§V): keep the Ex-ORAM partition
    structures of every lattice node alive so that insertions and
    deletions cost O(log n · polyloglog n) per attribute set instead of a
    full re-run — the paper's "non-trivial" criterion (Definition 5).

    [insert] cascades a new record through the retained attribute sets
    stage by stage, |X| = 1 first, so that each combined set keys the
    record by the labels its Property 1 generators gave it one stage
    earlier: max|X| + 1 frames per insert.  [delete] removes a record
    from every set at once (the sets are independent, §V-C): 3 frames
    per delete.  Both schedules depend on the retained set list alone.
    [revalidate] re-checks each currently tracked FD from the maintained
    cardinalities.

    Deletions can create {e new} FDs that were invalid before; finding
    those requires re-running discovery over the pruned parts of the
    lattice (the trivial fallback of §V-A) — [revalidate] only reports the
    status of known FDs, faithfully to the paper's scope. *)

open Relation

type t

val start : ?seed:int -> ?capacity:int -> ?max_lhs:int -> Table.t -> t
(** Run Ex-ORAM discovery, retaining every attribute-set structure.
    [capacity] bounds the total records ever live (default 4·n, minimum
    16); the ORAM trees are sized for it up front. *)

val fds : t -> Fdbase.Fd.t list
(** The FDs as of the initial discovery (use {!revalidate} after
    updates). *)

val live_records : t -> int

val insert : t -> Value.t array -> int
(** Insert a record (arity m); returns its assigned ID.
    @raise Invalid_argument on arity mismatch or capacity overflow. *)

val delete : t -> id:int -> unit
(** Delete a record by ID (no-op, with identical access patterns, if the
    ID is not present). *)

val revalidate : t -> (Fdbase.Fd.t * bool) list
(** Status of every initially discovered FD against the current data. *)

val cardinality : t -> Attrset.t -> int option
(** |π_X| if X is one of the retained lattice nodes. *)

val session : t -> Session.t
val release : t -> unit
