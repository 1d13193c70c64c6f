(** Durable image of one tenant session: snapshot + write-ahead journal.

    Each namespace owns a directory under the daemon's data dir holding
    a [snapshot] file (atomic-replace, {!Fsio.write_file_atomic}) and a
    generation-numbered journal [wal-<g>.log] of every counted request
    served since that snapshot — reads included, because the trace
    digests fold read accesses.  {!open_} recovers by rebuilding the
    stores from the snapshot, restoring the saved digest and ledger
    words, then replaying the journal through {!Handler.replay};
    the recovered session is bit-identical (stores, trace digests, cost
    ledger) to the uninterrupted one.

    A crash mid-append leaves a torn journal tail; recovery keeps the
    valid prefix and truncates the rest ({!Segment}).  A crash anywhere
    in the snapshot rotation is also safe: the snapshot's meta record
    names the journal generation that extends it, and stale journals
    are deleted on open.

    A tenant's dynamic FD session (protocol v5) is persisted as its
    update history: the snapshot embeds, after the store records, the
    successful [Begin_dynamic] and every update dispatched to the live
    session ({!Handler.export_dyn}), and the journal carries the
    updates since — both replayed through the normal dispatcher on
    open, which deterministically rebuilds the engine's ORAM state and
    trace digests (no engine state is ever serialised). *)

type t

exception Corrupt of string
(** Recovery found damage that cannot be a torn append tail: a corrupt
    snapshot (snapshots are written atomically, so any damage there is
    real), an undecodable checksummed record, or a reconstruction
    request the handler rejects.  The tenant directory needs operator
    attention; opening it must not silently serve wrong state. *)

val open_ : data_dir:string -> snapshot_every:int -> string -> t * Handler.state
(** [open_ ~data_dir ~snapshot_every ns] opens (creating on first use)
    the durable image of namespace [ns] and returns the journal handle
    plus the fully recovered session state.  [snapshot_every <= 0]
    disables automatic snapshots (journal grows until {!snapshot}).
    @raise Corrupt on non-recoverable damage (see {!Corrupt}). *)

val journal : t -> state:Handler.state -> Servsim.Wire.request -> unit
(** Append one served request to the journal (call once per counted
    frame, in service order).  Every [snapshot_every] appends the
    journal is folded into a fresh snapshot automatically. *)

val snapshot : t -> Handler.state -> unit
(** Write a fresh snapshot of [state] (atomic replace), retire the
    journal it supersedes and start the next generation's.  Called on
    tenant eviction and daemon shutdown so rehydration is snapshot-speed
    rather than full-journal replay. *)

val sync : t -> unit
(** Fsync the journal — an explicit durability point. *)

val close : t -> unit
(** Close the journal handle.  Does not snapshot or sync. *)

val wal_records : t -> int
(** Records appended to the live journal since its snapshot. *)

val generation : t -> int
(** Current snapshot/journal generation (0 before the first snapshot). *)

(** {2 On-disk layout} (exposed for tests and operator tooling) *)

val encode_ns : string -> string
(** Filesystem-safe directory name for a namespace: ["t-" ^ ns] when
    [ns] is non-empty and entirely [A-Za-z0-9._-], else ["x-" ^ hex].
    The two forms cannot collide. *)

val tenant_dir : data_dir:string -> string -> string
val wal_path : dir:string -> gen:int -> string
val snapshot_path : dir:string -> string
