(** The event-driven block-service daemon.

    One poll(2) readiness loop ({!Evloop}) owns everything: the
    listeners, the self-pipe for signal-safe shutdown, every connection
    from its version byte to its close, one tenant registry
    ({!Session}) and one {!Metrics.t}.  The per-frame hot path (read →
    decode → dispatch → trace/cost accounting → coalesced write) touches
    only that loop's state and takes no locks.

    Invariants: non-blocking accepts and reads, buffered writes with an
    8 MiB high-water-mark backpressure guard, a connection cap enforced
    at accept time, an optional idle timeout, graceful drain on {!stop}
    (close listeners, keep serving live connections up to the grace
    period).  Readiness timeouts are derived from the nearest pending
    deadline (idle expiry or drain grace): an idle daemon blocks
    indefinitely instead of polling.

    All descriptors are close-on-exec; every read/write/accept retries
    on [EINTR].  One misbehaving connection — malformed frames, a
    mid-frame disconnect, a [Hello] for a tenant whose durable image is
    corrupt, an unexpected exception — loses only itself: its tenant's
    state stays consistent because partial frames never dispatch, and
    every other connection keeps its own decoder and session. *)

type config = {
  unix_path : string option;  (** serve on this Unix-domain socket path *)
  tcp : (string * int) option;
      (** serve on TCP [(bind_address, port)]; port 0 picks an ephemeral
          port, reported by {!tcp_port} *)
  max_conns : int;  (** accept-and-close beyond this many live connections *)
  idle_timeout : float;  (** close idle connections after this many seconds; <= 0 disables *)
  drain_grace : float;  (** seconds to keep serving live connections after {!stop} *)
  domains : int;
      (** always 1: the daemon serves on one loop, and {!create} rejects
          any other value.  The field stays only because the end-to-end
          benchmark's daemon ([e2ebench/daemon.ml]) sets [domains = 1]. *)
  backend : Evloop.backend;
      (** always [Poll], the one readiness mechanism.  The field stays
          only because the end-to-end benchmark's daemon
          ([e2ebench/daemon.ml]) sets it to {!Evloop.best}[ ()]. *)
  data_dir : string option;
      (** root directory for per-tenant durable images (snapshot +
          write-ahead journal, {!Store.Tenant}).  [None] (the default)
          keeps every tenant purely in memory.  The layout is keyed by
          namespace. *)
  max_resident : int;
      (** with [data_dir] set, the daemon LRU-evicts cold tenants
          (snapshot to disk, drop from memory) beyond this many resident
          daemon-wide; the next [Hello] rehydrates transparently with
          bit-identical digests and ledgers.  [<= 0] (the default)
          disables eviction.  A positive value needs [data_dir]:
          {!create} rejects it without one, since an in-memory tenant
          has nowhere to be evicted to. *)
  log : string -> unit;
      (** receives one line per connection event, from the domain
          running {!run} (and from {!stop}'s caller on a stop-pipe
          fault); the default is [ignore] *)
}

val default_config : config
(** No listeners (callers must set at least one), [max_conns = 64], idle
    timeout disabled, 5 s drain grace, [domains = 1], in-memory tenants
    (no data dir, no resident cap), silent log. *)

type t

val create : config -> t
(** Bind and listen on the configured endpoints.  Raises
    [Invalid_argument] if neither [unix_path] nor [tcp] is set or
    [domains <> 1], and [Unix.Unix_error] if binding fails. *)

val run : t -> unit
(** Serve until a graceful drain completes.  Closes every descriptor,
    persists every disk-backed tenant and unlinks the Unix socket
    path. *)

val with_local : ?config:config -> (string -> t -> 'a) -> 'a
(** [with_local ?config f] serves [config] (default {!default_config})
    on a fresh temporary Unix socket from a spawned domain for the
    duration of [f path daemon], then {!stop}s the daemon and joins the
    domain, also when [f] raises (the exception then reaches the caller
    unchanged, with every connection closed and the socket path
    removed).  [config.unix_path] is replaced by the temporary path;
    every other field, [tcp] included, is used as given.  The socket is
    listening before [f] runs.  [f] must not call {!stop} itself: use
    {!create}/{!run} directly to test a drain.

    Running the daemon in a domain beside its caller is safe because
    the only module-level mutable state in [lib] is the [Aes128]
    T-tables, filled at module initialisation. *)

val stop : t -> unit
(** Request a graceful drain.  Async-signal-safe, and safe from any
    thread or domain: it writes one byte to a self-pipe watched by the
    serving loop, which closes the listeners and drains. *)

val install_stop_signals : t -> unit
(** Route SIGTERM and SIGINT to {!stop}. *)

val tcp_port : t -> int option
(** The actually-bound TCP port (useful with port 0). *)

val live_conns : t -> int
(** Connections currently live; safe to read from any domain. *)
