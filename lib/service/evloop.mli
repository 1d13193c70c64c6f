(** The readiness layer of the daemon's event loop: poll(2).

    The daemon registers descriptors and updates their interest in
    place; {!wait} hands the dense registration arrays to poll(2)
    and returns an indexed batch of ready events with no per-round list
    allocation.  Poll is POSIX, so it needs no build-time probe, and it
    has no [FD_SETSIZE] wall.  Its cost is a scan of every registered
    descriptor on each wait, which is measured against idle connections
    in [BENCH_service.json] (DESIGN.md §14).

    Readiness is {e level-triggered}: a descriptor stays ready until the
    condition is consumed.  The daemon drains each socket to [EAGAIN]
    anyway.  This is the only module in the tree allowed to touch raw
    readiness syscalls (fdlint R10, event-loop-hygiene).

    Not thread-safe: one [t] per event loop, touched only by the domain
    running it. *)

type backend = Poll
(** The one readiness mechanism.  This type, {!best} and
    [Daemon.config.backend] exist only because the end-to-end
    benchmark's daemon ([e2ebench/daemon.ml]) sets
    [backend = Service.Evloop.best ()]; a change to the benchmark can
    drop all three. *)

val best : unit -> backend
(** [Poll]. *)

type t

val create : unit -> t

val set : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Set a descriptor's interest, registering it on first use.  It only
    stores into the registration arrays (no syscall), so callers may
    invoke it unconditionally after serving a connection. *)

val remove : t -> Unix.file_descr -> unit
(** Forget a descriptor; call it before closing the fd.  No-op when not
    registered. *)

val wait : t -> timeout:float -> int
(** Block until readiness or [timeout] (seconds; negative = forever),
    returning the number of ready events.  [EINTR] is not retried: it
    surfaces as a zero-event round, so signal-driven self-pipe writes
    get serviced promptly.  Results are read with the indexed accessors
    below and are valid until the next {!wait}. *)

val ready_fd : t -> int -> Unix.file_descr
val ready_read : t -> int -> bool
val ready_write : t -> int -> bool
