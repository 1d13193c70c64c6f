(** The honest-but-curious cloud server S.

    Owns a set of named ciphertext block stores, the access-pattern trace
    (its complete adversarial view of protocol executions), and the cost
    ledger shared with the client.  Protocols create one server per
    session; tests compare the traces of two sessions on different
    databases of equal size. *)

type t

val create : ?keep_events:bool -> ?remote:Remote.t -> unit -> t
(** With [?remote], all stores live in the connected daemon (see
    {!Remote}); the in-process structures then only mirror the
    adversary's view for cost/trace accounting. *)

val remote : t -> Remote.t option

val trace : t -> Trace.t
val cost : t -> Cost.t

val create_store : t -> string -> slots:int -> Block_store.t
(** [create_store t name ~slots] registers a fresh store of [slots]
    empty blocks, its size for life: one frame, one round trip.
    @raise Invalid_argument if [name] is already registered or [slots]
    is negative or above {!Wire.max_list_len}, in local and remote mode
    alike, before anything is sent. *)

val find_store : t -> string -> Block_store.t
(** @raise Not_found if no such store. *)

val drop_store : t -> string -> unit
(** Releases a store's space (e.g. partitions of pruned lattice nodes). *)

val total_bytes : t -> int
(** Current server-side storage across all stores. *)

val store_names : t -> string list
