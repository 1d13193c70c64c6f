(** Tenant sessions: the namespace → server-state registry, optionally
    disk-backed with LRU eviction of cold tenants.

    A [Hello ns] binds a connection to the tenant named [ns].  Each
    tenant owns one {!Store.Handler.state} — its ciphertext stores,
    its access-pattern trace, and its cost ledger — so nothing an
    adversarial or buggy tenant does can perturb another tenant's
    digests or accounting.  Tenant state survives disconnects: a client
    that reconnects with the same namespace finds its stores (this is a
    database service, not a cache).

    With a {!config.data_dir} set, every tenant is additionally backed
    by a {!Store.Tenant} image (snapshot + write-ahead journal), served
    requests are journaled ({!journal}), and the registry keeps at most
    {!config.max_resident} tenants in memory: attaching one more evicts
    the least-recently-active tenant with no live connections
    (snapshot, close, drop) and the next [Hello] for it rehydrates from
    disk — with trace digests and cost ledgers bit-identical to never
    having been evicted.  Without a data dir there is nowhere to evict
    to: the registry keeps every tenant it has attached for the life of
    the daemon, and {!create} refuses a [max_resident] cap. *)

type tenant = {
  namespace : string;
  handler : Store.Handler.state;
  persist : Store.Tenant.t option;
      (** durable image; [None] when the registry has no data dir *)
  mutable pins : int;
      (** live connections serving this tenant; pinned tenants are never
          evicted *)
  mutable stamp : int;  (** LRU clock value at last activity *)
  latency : Metrics.Reservoir.t;
      (** service latencies of this tenant's counted frames since it
          became resident; eviction drops them with the tenant *)
}

type config = {
  data_dir : string option;  (** root of per-namespace durable images *)
  max_resident : int;
      (** LRU-evict beyond this many in-memory tenants; [<= 0] disables
          eviction.  A cap needs [data_dir] ({!create} refuses it without) *)
  snapshot_every : int;  (** see {!Store.Tenant.open_} *)
}

val default_config : config
(** In-memory only: no data dir, no cap, [snapshot_every = 1024]. *)

type registry

val create : ?config:config -> unit -> registry
(** @raise Invalid_argument if [max_resident > 0] without a [data_dir]. *)

val attach : registry -> string -> tenant
(** Find the tenant — creating it on first [Hello], or rehydrating it
    from its durable image if it was evicted — and pin it for the
    lifetime of the calling connection.  Balance with {!release}.
    @raise Store.Tenant.Corrupt if the durable image is damaged beyond
    torn-tail recovery. *)

val release : registry -> tenant -> unit
(** Unpin (connection closed).  May trigger eviction if the registry is
    over its cap. *)

val journal : registry -> tenant -> Servsim.Wire.request -> unit
(** Record one served counted frame in the tenant's durable journal (a
    no-op without a data dir) and mark the tenant recently used. *)

val shutdown : registry -> unit
(** Snapshot and close every disk-backed tenant, then empty the
    registry.  The daemon calls this once serving has stopped, making a
    graceful restart bit-identical to an uninterrupted run. *)

val find : registry -> string -> tenant option
val count : registry -> int
val namespaces : registry -> string list

val dyn_resident : registry -> int
(** Resident tenants currently holding a live dynamic FD session — the
    [dyn_sessions] gauge of a [Stats_reply], daemon-wide. *)
