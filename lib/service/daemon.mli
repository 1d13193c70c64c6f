(** The event-driven, multicore block-service daemon.

    One {e acceptor} loop owns the listeners, the self-pipe for
    signal-safe shutdown, and every connection's pre-session stage
    (version handshake + the mandatory first [Hello]); each
    authenticated connection is then routed to one of [domains] {e
    worker} event loops by a deterministic hash of its namespace
    ({!Session.shard}).  Every worker runs its own poll(2) readiness
    loop ({!Evloop}), woken through a private self-pipe for connection
    handoff and drain, and exclusively owns its shard of tenants: the per-frame hot path
    (decode → dispatch → trace/cost accounting → respond) touches only
    shard-local state and takes no locks, and a tenant's digests and
    ledgers are bit-identical to a single-domain daemon's because all of
    a namespace's connections serialize on the same worker.

    With [domains = 1] no domain is spawned and the acceptor serves
    connections itself — the familiar single-loop daemon, byte-for-byte
    the same behavior.

    Shared invariants, regardless of domain count: non-blocking accepts
    and reads, buffered writes with an 8 MiB high-water-mark
    backpressure guard, a connection cap enforced at accept time, an
    optional idle timeout, graceful drain on {!stop} (close listeners,
    keep serving live connections up to the grace period, then
    [Domain.join] every worker).  Readiness timeouts are derived from
    the nearest pending deadline (idle expiry or drain grace): an idle
    daemon blocks indefinitely instead of polling.

    All descriptors are close-on-exec; every read/write/accept retries
    on [EINTR].  One misbehaving connection — malformed frames, a
    mid-frame disconnect, an unexpected exception — loses only itself:
    its tenant's state stays consistent because partial frames never
    dispatch, and every other connection keeps its own decoder and
    session. *)

type config = {
  unix_path : string option;  (** serve on this Unix-domain socket path *)
  tcp : (string * int) option;
      (** serve on TCP [(bind_address, port)]; port 0 picks an ephemeral
          port, reported by {!tcp_port} *)
  max_conns : int;  (** accept-and-close beyond this many live connections *)
  idle_timeout : float;  (** close idle connections after this many seconds; <= 0 disables *)
  drain_grace : float;  (** seconds to keep serving live connections after {!stop} *)
  domains : int;
      (** worker event loops; 1 (the default) serves on the acceptor
          loop itself with no domain spawned *)
  backend : Evloop.backend;
      (** always [Poll], the one readiness mechanism.  The field stays
          only because the end-to-end benchmark's daemon
          ([e2ebench/daemon.ml]) sets it to {!Evloop.best}[ ()]. *)
  data_dir : string option;
      (** root directory for per-tenant durable images (snapshot +
          write-ahead journal, {!Store.Tenant}).  [None] (the default)
          keeps every tenant purely in memory, exactly the old
          behavior.  The layout is keyed by namespace, not by worker,
          so a restart with a different [domains] count still finds
          every tenant. *)
  max_resident : int;
      (** with [data_dir] set, each worker LRU-evicts cold tenants
          (snapshot to disk, drop from memory) beyond this many resident
          in its shard; the next [Hello] rehydrates transparently with
          bit-identical digests and ledgers.  [<= 0] (the default)
          disables eviction. *)
  log : string -> unit;
      (** receives one line per connection event; called from the
          acceptor and from every worker domain, so it must be
          domain-safe (the default, [ignore], is) *)
}

val default_config : config
(** No listeners (callers must set at least one), [max_conns = 64], idle
    timeout disabled, 5 s drain grace, [domains = 1], in-memory tenants
    (no data dir, no resident cap), silent log. *)

type t

val create : config -> t
(** Bind and listen on the configured endpoints.  Raises
    [Invalid_argument] if neither [unix_path] nor [tcp] is set or
    [domains < 1], and [Unix.Unix_error] if binding fails. *)

val run : t -> unit
(** Serve until a graceful drain completes; with [domains > 1] this
    spawns the worker domains and joins them all before returning.
    Closes every descriptor and unlinks the Unix socket path. *)

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
    T-tables, filled at module initialisation, and
    [Servsim.Handler]'s dynamic-engine provider, set before serving. *)

val stop : t -> unit
(** Request a graceful drain.  Async-signal-safe, and safe from any
    thread or domain: it writes one byte to a self-pipe watched by the
    acceptor loop, which closes the listeners and broadcasts the drain
    to every worker. *)

val install_stop_signals : t -> unit
(** Route SIGTERM and SIGINT to {!stop}. *)

val domains : t -> int
(** Number of worker event loops (the configured [domains]). *)

val metrics : t -> Metrics.t
(** Acceptor-side counters: accepts, rejects, uptime. *)

val worker_metrics : t -> Metrics.t list
(** Each worker's shard-local metrics (frame/byte counters and latency
    reservoirs for the namespaces it owns), in worker order. *)

val registries : t -> Session.registry list
(** Each worker's shard-local tenant registry, in worker order. *)

val shard_of : t -> string -> int
(** The worker index that owns a namespace ({!Session.shard}). *)

val ns_summary : t -> string -> Metrics.summary
(** Merged view of one namespace's metrics: looked up on the worker
    that owns the shard (a namespace never spans workers). *)

val tcp_port : t -> int option
(** The actually-bound TCP port (useful with port 0). *)

val live_conns : t -> int
(** Connections currently live across the acceptor and all workers. *)
