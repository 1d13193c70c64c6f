(** A named, fixed-size array of ciphertext blocks held by the server.

    Every read and write is recorded in the server's {!Trace} and counted
    against the channel in {!Cost} — this is the adversary's complete view
    of the store.  Blocks are opaque strings (ciphertexts); the store never
    interprets them.  A store's slot count is fixed when it is created
    ({!Server.create_store}); it never grows.

    There is one core, {!exchange}; {!read}, {!read_many} and
    {!write_many} are one-line calls into it.  In remote mode it is the
    protocol's one block verb: every exchange is one [Wire.Exchange]
    frame.  Round trips are counted here, one per frame, so the ledger
    matches real wire traffic in both local and remote modes.  Structured
    access patterns (an ORAM path, a bulk initialization) should
    therefore go through the batch API.

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

val exchange : puts:(t * (int * string) list) list -> gets:(t * int list) list -> string list
(** [exchange ~puts ~gets] writes every put group's (slot, block) pairs,
    in group order then item order, then reads every get group's slots,
    and returns the blocks read in that order.  It traces one event per
    block, puts before gets, and counts a {e single} round trip for the
    whole frame (one [Exchange] frame in remote mode).  All stores must
    belong to the same server.  Every index is bounds-checked before
    anything is sent or mutated, so a frame with one bad index raises
    [Invalid_argument] and changes nothing.  A frame whose groups are
    all empty performs no I/O at all. *)

val read : t -> int -> string
(** [read t i] is block [i] of a one-slot {!exchange}. *)

val read_many : t -> int list -> string list
(** [read_many t idxs] is [exchange ~puts:[] ~gets:[ (t, idxs) ]]. *)

val write_many : t -> (int * string) list -> unit
(** [write_many t items] is [exchange ~puts:[ (t, items) ] ~gets:[]]. *)

(** {2 Construction} — normally via {!Server.create_store}. *)

val create :
  name:string ->
  slots:int ->
  trace:Trace.t ->
  on_resize:(int -> unit) ->
  ?remote:Remote.t ->
  Cost.t ->
  t
(** A store of [slots] empty blocks.  With [?remote], blocks live in the
    connected daemon and every exchange is a wire round trip; the client
    still records its own trace and cost view (block sizes are mirrored
    locally). *)
