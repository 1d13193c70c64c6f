(** Wire protocol (v6) between the client and a remote server process.

    Binary, synchronous request/response over any pair of file
    descriptors (Unix socketpair, Unix-domain socket, TCP socket).  All
    integers are little-endian fixed width; strings are length-prefixed.
    The protocol carries only what the honest-but-curious server
    legitimately sees: opaque ciphertext blocks and store bookkeeping.

    v2 added batched block operations ([Multi_get]/[Multi_put]/[Values])
    plus a one-byte version handshake and hard caps on every length
    prefix.  v3 adds multi-tenant session establishment ([Hello] with a
    namespace), liveness ([Ping]/[Pong]) and service introspection
    ([Stats]/[Stats_reply]), and re-expresses the codec over pluggable
    {!sink}/{!source} records so the same code drives blocking channels
    and the daemon's incremental, non-blocking frame reassembly.  v4
    added event-loop counters to [Stats_reply].  v5 adds the dynamic
    FD-maintenance verbs of the paper's §V
    ([Begin_dynamic]/[Insert_row]/[Delete_row]/[Revalidate] answered by
    [Row_id]/[Fds_reply]) plus per-verb update counters in
    [Stats_reply].  v6 adds [Scatter_put], the cross-store batched
    write the recursive ORAM's deferred path-suffix evictions ride in —
    one frame per logical access instead of one per tree.

    The dynamic verbs are the one place the protocol carries plaintext
    row material: they model the trusted client (or enclave proxy)
    streaming updates to the discovery engine it co-locates with, and
    the adversary's view is {e not} this channel but the engine's own
    block-access trace, whose digests every [Fds_reply] reports. *)

type request =
  | Hello of string
      (** Establish the session: bind this connection to an isolated
          store namespace.  Sent once, immediately after the version
          handshake; part of connection setup, so neither side counts it
          as a request frame. *)
  | Create_store of string
  | Drop_store of string
  | Ensure of string * int
  | Get of string * int
  | Put of string * int * string
  | Multi_get of string * int list
      (** Read a batch of slots of one store, in order, in one frame. *)
  | Multi_put of string * (int * string) list
      (** Write a batch of (slot, ciphertext) pairs in one frame; applied
          (and traced server-side) in list order, all-or-nothing with
          respect to bounds checking. *)
  | Scatter_put of (string * (int * string) list) list
      (** Write batches spanning several stores in one frame; groups are
          applied (and traced) in list order, items in order within each
          group.  All-or-nothing: every store must exist and every index
          must be in bounds before anything is mutated. *)
  | Digest  (** ask the server for its own trace digests *)
  | Total_bytes
  | Ping  (** liveness probe; answered with [Pong] *)
  | Stats  (** per-session service statistics; answered with [Stats_reply] *)
  | Begin_dynamic of { seed : int64; capacity : int; max_lhs : int; cols : int; rows : string list list }
      (** Start this namespace's dynamic FD session (§V): run Ex-ORAM
          discovery over the [rows] (each a list of exactly [cols]
          {!Relation.Codec}-encoded cells) and keep every lattice
          structure alive for incremental maintenance.  [seed] drives
          the engine's client randomness so runs are reproducible;
          [capacity] and [max_lhs] are engine parameters (0 = engine
          default).  Answered with [Fds_reply] listing the discovered
          FDs (all initially valid); at most one dynamic session per
          namespace.  Both codec directions reject [cols] outside
          [1..max_row_cells] and any row whose cell count differs from
          [cols]. *)
  | Insert_row of string list
      (** Insert one record (encoded cells, arity checked server-side
          against the session's table); answered with [Row_id]. *)
  | Delete_row of int
      (** Delete a record by ID.  Answered with [Ok] whether or not the
          ID is live — deletion of an absent record performs the same
          oblivious accesses as a real one (§V), so the reply carries no
          membership signal. *)
  | Revalidate
      (** Re-check every initially discovered FD against the current
          data; answered with [Fds_reply]. *)
  | Bye

type stats = {
  uptime_us : int64;  (** server uptime, microseconds *)
  sessions : int;  (** currently connected clients, server-wide *)
  frames : int;
      (** request frames served in this session (its round-trip ledger);
          [Hello] and the version byte are connection setup and excluded *)
  bytes_in : int;  (** request bytes received in this session *)
  bytes_out : int;
      (** response bytes sent in this session, excluding the in-flight
          [Stats_reply] itself *)
  p50_us : int;  (** service-latency percentiles for this session's *)
  p95_us : int;  (** namespace, microseconds; 0 when the serving mode *)
  p99_us : int;  (** does not sample latencies (legacy fork server) *)
  loop_reads : int;
      (** [read(2)] calls issued by the event loop serving this
          session's worker, daemon-lifetime; with {!loop_writes},
          divides into frames served to give syscalls-per-op.  0 when
          the serving mode has no event loop (legacy fork server) *)
  loop_writes : int;  (** [write(2)] calls issued by the same loop *)
  loop_wakeups : int;  (** readiness wakeups with at least one event *)
  loop_rounds : int;  (** event-loop iterations (wait calls) *)
  inserts : int;  (** [Insert_row] frames served to this namespace *)
  deletes : int;  (** [Delete_row] frames served to this namespace *)
  revalidates : int;  (** [Revalidate] frames served to this namespace *)
  dyn_sessions : int;
      (** dynamic sessions currently resident (for the daemon: in this
          session's worker shard; 1 or 0 for single-session servers) *)
}

type fd_status = {
  fd_lhs : int64;  (** LHS attribute set as its bitmask ({!Relation.Attrset.to_int}) *)
  fd_rhs : int;  (** RHS column index *)
  fd_valid : bool;  (** does the FD still hold on the current data? *)
}

type dyn_fds = {
  fds : fd_status list;  (** canonical (sorted) order, as discovery emits them *)
  dyn_full : int64;  (** full trace digest of the dynamic engine's server view *)
  dyn_shape : int64;  (** shape digest of the same view *)
  dyn_events : int;  (** accesses recorded in that trace *)
}

type response =
  | Ok
  | Value of string
  | Values of string list  (** answers [Multi_get], same order as the indices *)
  | Digests of { full : int64; shape : int64; count : int }
  | Bytes_total of int
  | Pong
  | Stats_reply of stats
  | Row_id of int  (** answers [Insert_row]: the record's assigned ID *)
  | Fds_reply of dyn_fds  (** answers [Begin_dynamic] and [Revalidate] *)
  | Error of string

val protocol_version : int
(** Current protocol version (6).  Exchanged once per connection:
    the client sends its version byte, the server always answers with its
    own, and each side rejects a mismatch — a v2 peer fails the handshake
    cleanly instead of misparsing the stream mid-session. *)

val max_string_len : int
(** Upper bound any string length prefix may claim (bytes). *)

val max_list_len : int
(** Upper bound any batch count prefix may claim (entries). *)

val max_namespace_len : int
(** Upper bound on a [Hello] namespace length (bytes). *)

val max_row_cells : int
(** Upper bound on the cell count of one dynamic row — both the claimed
    count of an [Insert_row] and the declared arity of a
    [Begin_dynamic].  Comfortably above {!Relation.Attrset.max_attrs}
    (62 columns), far below {!max_list_len}: a row prefix claiming more
    is rejected as oversized before any cell is read. *)

(** {2 Sinks and sources}

    The codec is written once against these records.  [string_source]
    raises {!Incomplete} (not [Protocol_error]) when it runs off the end
    of the buffer: the frame is merely not fully received yet, and the
    caller should retry once more bytes arrive. *)

type sink = { put_char : char -> unit; put_str : string -> unit }
type source = { get_char : unit -> char; get_exact : int -> string }

val channel_sink : out_channel -> sink
val buffer_sink : Buffer.t -> sink

val channel_source : in_channel -> source
(** Blocking source; raises [End_of_file] on a closed peer. *)

val string_source : string -> int ref -> source
(** [string_source s pos] reads from [s] starting at [!pos], advancing
    [pos] as it consumes.  @raise Incomplete when [s] is exhausted. *)

val bytes_source : bytes -> int ref -> limit:int -> source
(** [bytes_source b pos ~limit] reads from [b.[!pos .. limit-1]],
    advancing [pos] as it consumes — a zero-copy window over a
    reassembly buffer, so an incremental decoder can parse in place
    instead of snapshotting the buffer to a string per frame.
    @raise Incomplete on any read past [limit]. *)

val write_hello : out_channel -> unit
(** Send the one-byte version preamble. *)

val read_hello : in_channel -> int
(** Read the peer's version byte. *)

val write_request : out_channel -> request -> unit
val read_request : in_channel -> request
val write_response : out_channel -> response -> unit
val read_response : in_channel -> response

val write_request_sink : sink -> request -> unit
(** Like {!write_request} but into any sink, and without the flush. *)

val read_request_src : source -> request

val write_response_sink : sink -> response -> unit
val read_response_src : source -> response

val request_size : request -> int
(** Exact encoded size of the frame in bytes (the codec is canonical). *)

val response_size : response -> int

exception Protocol_error of string
(** The stream is malformed beyond recovery (bad tag, oversized prefix,
    out-of-range integer). *)

exception Incomplete
(** Raised only by {!string_source}: the frame has not fully arrived. *)
