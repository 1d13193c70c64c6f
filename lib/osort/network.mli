(** Comparator networks.

    A sorting network is an explicit, data-independent schedule of
    compare-exchange operations: a sequence of stages, each a set of
    comparators touching pairwise-disjoint positions.  Because the schedule
    is a function of the array length alone, any algorithm that executes a
    network over encrypted elements is oblivious by construction
    (Definition 2 of the paper) — this module is where that guarantee
    comes from, so it is kept free of any data or crypto concerns.

    Comparators within one stage are disjoint, which is exactly the
    parallelism the paper exploits (§VII-D, up to n/2 threads). *)

type comparator = {
  i : int;
  j : int;  (** i < j always *)
  up : bool;  (** after the exchange, elt(i) <= elt(j) iff [up] *)
}

type t = {
  n : int;  (** array length the network sorts (a power of two) *)
  stages : comparator array array;
}

(** A connected group of slots within a pass: the slots its comparators
    link, directly or through one another. *)
type component = {
  slots : int array;  (** ascending *)
  comparators : comparator array;  (** in stage order, each stage's in its own order *)
}

(** Consecutive stages that an exchanger with room for [block] slots can
    run component by component: no component holds more than [block]
    slots, and distinct components share none. *)
type pass = {
  first : int;  (** index of the pass's first stage *)
  count : int;  (** number of stages, at least one *)
  components : component array;
      (** ordered by smallest slot; a slot that no comparator of the
          pass touches is in none *)
}

val passes : t -> block:int -> pass array
(** [passes net ~block] cuts [net]'s stages greedily into passes: a
    pass takes the next stage as long as every connected component of
    its comparators (union-find over slots) keeps at most [block]
    slots.  Running a pass's components one after another, each
    comparator in stage order, is running its stages.  A function of
    the network alone, hence of [n]: for bitonic at [block = 64] it
    gives 1 pass at n = 2^6 (21 stages), 4 at 2^8 (36), 9 at 2^11 (66).
    @raise Invalid_argument if [block < 2]. *)

val bitonic : int -> t
(** [bitonic n] is Batcher's bitonic sorting network for [n] a power of
    two; O(n log^2 n) comparators in (log n)(log n + 1)/2 stages.
    @raise Invalid_argument if [n] is not a positive power of two. *)

val odd_even_merge : int -> t
(** Batcher's odd-even merge sorting network, same asymptotics with a
    smaller constant; used for the network ablation. *)

val comparator_count : t -> int
val stage_count : t -> int

val sorts_all_01 : t -> bool
(** Exhaustive 0-1-principle check: the network sorts all 2^n boolean
    inputs ascending.  Exponential — for test use with n <= 16. *)

val check_disjoint_stages : t -> bool
(** Every stage touches each index at most once (required for parallel
    execution). *)

val ceil_pow2 : int -> int
(** Smallest power of two >= max(1, n). *)
