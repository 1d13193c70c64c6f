(** Access-pattern trace of the honest-but-curious server's view.

    The persistent adversary of the paper observes, for every protocol step,
    which physical locations are touched and how many bytes move.  This
    module records exactly that view so the test suite can check
    Definition 2 (oblivious algorithm) operationally:

    - the {e full digest} folds in (store, op, address, length) of every
      access — two runs with bit-identical access patterns have equal full
      digests (used for the sorting-based method, whose comparator network
      is fixed by the input size);
    - the {e shape digest} folds in (store, op, length) but not addresses —
      ORAM-based runs touch uniformly random paths, so addresses differ
      across runs while the shape (sequence of op kinds and sizes) must be
      a deterministic function of the database size alone.

    Digests are 64-bit FNV-1a rolling hashes over each event's store
    bytes, then op tag, addr and len as 8 little-endian bytes each of
    the 63-bit int, updated in a streaming fashion so arbitrarily long
    traces cost O(1) memory.  Tests that need
    the raw event list can opt into retention with [keep_events]. *)

type op = Read | Write

type event = { store : string; op : op; addr : int; len : int }

type t

val create : ?keep_events:bool -> unit -> t

val record_name : t -> string -> op -> addr:int -> len:int -> unit
(** [record_name t store op ~addr ~len] records one access to [store]:
    it folds (store, op, addr, len) into the full digest and (store, op,
    len) into the shape digest, with no per-event allocation (unless
    [keep_events] retention is on). *)

val mark : t -> string -> unit
(** [mark t label] folds a phase label into both digests.  Use it to
    delimit protocol phases so that shapes cannot align accidentally. *)

val count : t -> int
(** Number of accesses recorded so far (marks excluded). *)

val full_digest : t -> int64
val shape_digest : t -> int64

val events : t -> event list
(** Recorded events in order; empty unless created with [keep_events]. *)

(** {2 Persistence}

    The rolling FNV-1a state itself is the serializable object: saving
    the two 32-bit halves of each digest plus the event count and
    restoring them into a fresh recorder continues the stream exactly
    where it left off, so digests survive process restarts bit-identically
    without retaining the trace. *)

type persisted = {
  p_count : int;
  p_full_lo : int;  (** low 32 bits of the full digest's FNV state *)
  p_full_hi : int;
  p_shape_lo : int;
  p_shape_hi : int;
}

val save : t -> persisted

val load : t -> persisted -> unit
(** Overwrite [t]'s digest state and count with [p].  Any retained event
    list is cleared — persistence never stores raw events. *)

val set_enabled : t -> bool -> unit
(** Disable recording (e.g. during multi-domain parallel sections, where
    the single-threaded recorder must not be shared). *)

val enabled : t -> bool
