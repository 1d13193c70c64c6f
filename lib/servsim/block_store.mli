(** A named, growable array of ciphertext blocks held by the server.

    Every read and write is recorded in the server's {!Trace} and counted
    against the channel in {!Cost} — this is the adversary's complete view
    of the store.  Blocks are opaque strings (ciphertexts); the store never
    interprets them.

    There is one read core, {!read_many}, and one write core,
    {!write_scatter}; {!read}, {!write} and {!write_many} are one-slot and
    one-store calls into them.  In remote mode the two cores are the
    protocol's two block-data verbs: every read is one [Wire.Multi_get]
    frame and every write one [Wire.Scatter_put] frame.  Round trips are
    counted here, one per frame, so the ledger matches real wire traffic
    in both local and remote modes.  Structured access patterns (an ORAM
    path, a bulk initialization) should therefore go through the batch
    API.

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
(** [read t i] is [read_many t [i]]: block [i], traced, its bytes counted
    as server→client traffic and one round trip. *)

val write : t -> int -> string -> unit
(** [write t i c] is [write_scatter [(t, [(i, c)])]]: replaces block [i],
    traced, counted as client→server traffic and one round trip. *)

val read_many : t -> int list -> string list
(** [read_many t idxs] returns the blocks at [idxs] in order.  Traces one
    event per block, in order, but counts a single round trip: in remote
    mode the whole batch is one [Multi_get] frame.  The empty list
    performs no I/O at all. *)

val write_many : t -> (int * string) list -> unit
(** [write_many t items] is [write_scatter [(t, items)]]: every (slot,
    block) pair in list order, one traced event per block, one round trip
    for the whole batch.  The empty list performs no I/O at all. *)

val write_scatter : (t * (int * string) list) list -> unit
(** [write_scatter groups] writes every group's (slot, block) pairs, in
    group order then item order — one traced event per block but a
    {e single} round trip for the whole cross-store batch (one
    [Scatter_put] frame in remote mode).  All stores must belong to the
    same server.  Every index is bounds-checked before anything is sent
    or mutated, so a batch with one bad index raises [Invalid_argument]
    and changes nothing.  Empty groups are skipped; an entirely empty
    batch performs no I/O at all. *)

(** {2 Construction} — normally via {!Server.create_store}. *)

val create :
  name:string -> trace:Trace.t -> on_resize:(int -> unit) -> ?remote:Remote.t -> Cost.t -> t
(** With [?remote], blocks live in the connected daemon and every
    read/write (or batch) is a wire round trip; the client still records
    its own trace and cost view (block sizes are mirrored locally). *)
