(** Client-side connection to a server over a stream socket — in
    practice the multi-tenant daemon ([Service.Daemon]), in this process
    or another. *)

type t

val connect_fd : ?namespace:string -> ?depth:int -> Unix.file_descr -> t
(** Wrap a connected descriptor.  Performs the one-byte version handshake
    and then binds the connection to [namespace] (default ["default"])
    with a [Hello] frame — an isolated store namespace with its own
    server-side trace and cost ledgers when the peer is the multi-tenant
    daemon.  Neither setup exchange is counted in {!frames}.

    [depth] (default 1) bounds how many request frames may be in flight
    at once.  Depth 1 is the classic strict request/response client.  A
    larger depth lets the write verb stream ({!scatter_put_async}, which
    every [Block_store] write goes through) and enables {!pipelined} and
    the raw {!send}/{!recv} pair to keep the wire full: requests are buffered
    and flushed in batches, and responses are matched to requests in
    order (the server serves one connection strictly sequentially, so
    ordered matching is exact, not heuristic).  Every op above is
    counted in {!frames} exactly as its synchronous equivalent, and
    synchronous calls transparently collect outstanding asynchronous
    acknowledgements first — ledgers and digests are therefore
    bit-identical to a depth-1 run of the same op sequence.  The read
    verb, {!multi_get}, is always synchronous.

    A server that closes or resets the connection surfaces as
    [Wire.Protocol_error] from whichever op reads or flushes next —
    never as a raw [End_of_file] or [Sys_error].
    @raise Wire.Protocol_error if the server speaks a different protocol
    version, rejects the session, or closes during setup. *)

val connect_unix : ?namespace:string -> ?depth:int -> string -> t
(** [connect_unix path] connects to a daemon listening on a Unix-domain
    socket at [path], then behaves as {!connect_fd}. *)

val connect_tcp : ?namespace:string -> ?depth:int -> host:string -> port:int -> unit -> t
(** [connect_tcp ~host ~port ()] connects over TCP (numeric address or
    hostname; [TCP_NODELAY] is set), then behaves as {!connect_fd}. *)

val call : t -> Wire.request -> Wire.response
(** Synchronous request/response; first collects every outstanding
    {!scatter_put_async} acknowledgement (ordered matching).
    @raise Wire.Protocol_error on an [Error] response, or when the
    server has closed the connection. *)

val depth : t -> int
(** The connection's pipelining depth (>= 1). *)

val inflight : t -> int
(** Outstanding frames awaiting responses (async puts + raw sends). *)

val drain : t -> unit
(** Collect every outstanding {!scatter_put_async} acknowledgement (raw
    {!send}s are the caller's to {!recv}).
    @raise Wire.Protocol_error if any collected response is an error, or
    the server has closed or reset the connection. *)

val pipelined : t -> Wire.request list -> Wire.response list
(** Issue a batch with up to [depth] frames in flight, returning raw
    responses in request order ([Error] responses are returned, not
    raised — the batch always completes).  With depth 1 this degrades
    to sequential calls. *)

val send : t -> Wire.request -> unit
(** Raw pipelining primitive for load harnesses: queue one request
    (buffered until the next {!recv} flushes) after collecting any
    outstanding async puts.  The caller must {!recv} exactly one
    response per send, in order, and may have at most [depth]
    outstanding.  Counted in {!frames}. *)

val recv : t -> Wire.response
(** The response to the oldest un-{!recv}ed {!send} (raw: [Error] is
    returned, not raised).
    @raise Wire.Protocol_error when nothing is in flight. *)

(** {2 Block data: one read verb, one write verb} *)

val multi_get : t -> store:string -> int list -> string list
(** One [Multi_get] frame; values in index order.  No-op (no frame) on the
    empty list. *)

val scatter_put : t -> (string * (int * string) list) list -> unit
(** One [Scatter_put] frame writing batches to one or more stores.
    No-op (no frame) when every group is empty. *)

val scatter_put_async : t -> (string * (int * string) list) list -> unit
(** Like {!scatter_put}, but with [depth > 1] it only waits when [depth]
    acknowledgements are already outstanding (collecting the oldest) —
    writes stream without a round-trip stall per frame.  Errors surface
    on the op that collects the acknowledgement ({!drain} or the next
    synchronous call).  Identical to {!scatter_put} at depth 1. *)

(** {2 Dynamic FD sessions (protocol v5)}

    Drivers for the streaming update verbs.  Cells travel as
    [Relation.Codec]-encoded strings (see [Dynserve.encode_row]); the
    server must have a dynamic engine installed. *)

val begin_dynamic :
  t -> ?capacity:int -> ?max_lhs:int -> seed:int64 -> cols:int -> string list list -> Wire.dyn_fds
(** Start this namespace's dynamic session over the given table and
    return the initial FDs plus the engine's trace digests.
    [capacity]/[max_lhs] default to 0 ("engine default").
    @raise Wire.Protocol_error on an [Error] response (engine missing,
    session already active, malformed cells) or a row/arity cap. *)

val insert_row : t -> string list -> int
(** One [Insert_row] exchange; returns the record's assigned ID. *)

val insert_rows : t -> string list list -> int list
(** Pipelined [Insert_row] burst (up to [depth] frames in flight, see
    {!pipelined}); IDs in request order.  @raise Wire.Protocol_error on
    the first [Error] response. *)

val delete_row : t -> id:int -> unit
(** One [Delete_row] exchange.  Succeeds whether or not [id] is live. *)

val revalidate : t -> Wire.dyn_fds
(** One [Revalidate] exchange: every initially discovered FD with its
    current validity, plus the engine's trace digests. *)

val ping : t -> unit
(** One [Ping]/[Pong] exchange (counted in {!frames}). *)

val stats : t -> Wire.stats
(** The server's view of this session: frames served (its round-trip
    ledger, which must equal {!frames}), bytes, service-latency
    percentiles, uptime, live session count. *)

val frames : t -> int
(** Number of request/response exchanges performed on this connection so
    far (the version handshake and the [Hello] session setup are not
    counted).  The round-trip ledger in {!Cost} is asserted against this
    counter in tests, and the server's own per-session ledger — reported
    by {!stats} — must match it too. *)

val digests : t -> full:int64 -> shape:int64 -> count:int -> bool
(** [digests t ~full ~shape ~count] asks the server for its own trace
    digests and compares with the given (client-side) ones. *)

val server_digests : t -> int64 * int64 * int
(** The server's own (full, shape, count). *)

val close : t -> unit
(** Send [Bye] (best effort) and close the descriptor. *)
