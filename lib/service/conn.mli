(** Per-connection state machine: version handshake, session
    establishment, incremental frame reassembly, request dispatch and
    response buffering.  Pure with respect to the socket — the daemon
    owns every syscall and feeds bytes in / shovels bytes out — which
    keeps the machine unit-testable and the failure domain of one
    connection strictly its own. *)

type t

type ctx = {
  registry : Session.registry;
  metrics : Metrics.t;
  live_sessions : unit -> int;
  log : string -> unit;  (** session binds and refused tenants *)
}

val create : id:int -> peer:string -> now:float -> Unix.file_descr -> t

val fd : t -> Unix.file_descr
val peer : t -> string

val on_bytes : ctx -> t -> bytes -> len:int -> now:float -> unit
(** Feed a received chunk: the version byte, then the first frame
    (which must be [Hello ns]; it binds the tenant in [ctx.registry]),
    then every complete request frame, each response appended to the
    output buffer.  A malformed stream, a refused handshake or a tenant
    whose durable image is corrupt ({!Store.Tenant.Corrupt}) turns into
    one final [Error] response and the closing state — it never
    raises. *)

val wants_write : t -> bool
val pending_output : t -> int

val output : t -> bytes * int * int
(** [(buf, off, len)]: the pending output is [buf[off .. off+len)],
    a zero-copy view of the connection's coalesced response buffer —
    every frame served since the last full flush is in it, so one
    [write(2)] drains one wakeup's worth of responses.  Valid until the
    next mutation of the connection; report progress with {!wrote}. *)

val pre_hello_max : int
(** Cap on bytes a connection may buffer before completing its [Hello]
    (the handshake stage is unauthenticated, so its memory must be
    bounded tighter than the 64 MiB frame cap).
    Exceeding it closes the connection with an [Error]. *)

val wrote : t -> int -> unit

val closing : t -> bool
(** The connection should accept no further input ([Bye], handshake
    mismatch, or protocol error). *)

val finished : t -> bool
(** Closing and fully flushed: drop the descriptor. *)

val tenant : t -> Session.tenant option
(** The tenant bound by the [Hello], if any — still available in the
    closing phase, so the daemon can release the tenant's pin exactly
    when it drops the descriptor. *)

val last_active : t -> float
