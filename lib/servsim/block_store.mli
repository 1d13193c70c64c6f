(** A named, growable array of ciphertext blocks held by the server.

    Every read and write is recorded in the server's {!Trace} and counted
    against the channel in {!Cost} — this is the adversary's complete view
    of the store.  Blocks are opaque strings (ciphertexts); the store never
    interprets them.

    Round trips are counted here, one per wire frame: a single
    {!read}/{!write} is one frame, and a whole {!read_many}/{!write_many}
    batch is also exactly one frame ([Wire.Multi_get]/[Wire.Multi_put] in
    remote mode) — so the ledger matches real wire traffic in both local
    and remote modes.  Structured access patterns (an ORAM path, a bulk
    initialization) should therefore go through the batch API.

    While the trace is disabled ({!Trace.set_enabled}), cost accounting is
    suspended as well: the shared counters are not safe (or cheap) to
    mutate from multiple domains, and multi-domain sections are exactly
    when tracing is turned off.  Byte/storage totals are therefore only
    meaningful for single-domain runs. *)

type t

val name : t -> string

val length : t -> int
(** Number of block slots. *)

val size_bytes : t -> int
(** Total bytes currently stored. *)

val ensure : t -> int -> unit
(** [ensure t n] grows the store to at least [n] slots (empty blocks).
    Growing costs one round trip (it is one wire frame in remote mode). *)

val read : t -> int -> string
(** [read t i] returns block [i], tracing the access and counting the
    bytes as server→client traffic and one round trip. *)

val write : t -> int -> string -> unit
(** [write t i c] replaces block [i], tracing and counting client→server
    traffic and one round trip. *)

val read_many : t -> int list -> string list
(** [read_many t idxs] returns the blocks at [idxs] in order.  Traces one
    event per block — identical to the equivalent loop of {!read}s — but
    counts a single round trip: in remote mode the whole batch is one
    [Multi_get] frame.  The empty list performs no I/O at all. *)

val write_many : t -> (int * string) list -> unit
(** [write_many t items] writes every (slot, block) pair in list order.
    One traced event per block, one round trip ([Multi_put]) for the whole
    batch.  The empty list performs no I/O at all. *)

val write_scatter : (t * (int * string) list) list -> unit
(** [write_scatter groups] writes every group's (slot, block) pairs, in
    group order then item order — one traced event per block but a
    {e single} round trip for the whole cross-store batch (one
    [Scatter_put] frame in remote mode).  All stores must belong to the
    same server.  Empty groups are skipped; an entirely empty batch
    performs no I/O at all. *)

(** {2 Construction} — normally via {!Server.create_store}. *)

val create :
  name:string -> trace:Trace.t -> on_resize:(int -> unit) -> ?remote:Remote.t -> Cost.t -> t
(** With [?remote], blocks live in the connected daemon and every
    read/write (or batch) is a wire round trip; the client still records
    its own trace and cost view (block sizes are mirrored locally). *)
