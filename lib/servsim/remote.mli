(** Client-side connection to a server over a stream socket — in
    practice the multi-tenant daemon ([Service.Daemon]), in this process
    or another.  Every block exchange is one synchronous
    request/response frame; only {!pipelined} and the raw
    {!send}/{!recv} pair keep several frames in flight. *)

type t

val connect_fd : ?namespace:string -> ?depth:int -> Unix.file_descr -> t
(** Wrap a connected descriptor.  Performs the one-byte version handshake
    and then binds the connection to [namespace] (default ["default"])
    with a [Hello] frame — an isolated store namespace with its own
    server-side trace and cost ledgers when the peer is the multi-tenant
    daemon.  Neither setup exchange is counted in {!frames}.

    [depth] (default 1) bounds how many frames {!send} may have in
    flight at once; it matters only to {!pipelined} and the raw
    {!send}/{!recv} pair.  Every other op, block reads and writes
    included, is one synchronous request/response exchange.  Pipelined
    requests are buffered and flushed in batches, and responses are
    matched to requests in order (the server serves one connection
    strictly sequentially, so ordered matching is exact, not
    heuristic).  Each pipelined frame is counted in {!frames} exactly
    as its synchronous equivalent.

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
(** Synchronous request/response.
    @raise Wire.Protocol_error on an [Error] response, when the server
    has closed the connection, or while raw {!send}s are outstanding. *)

val depth : t -> int
(** The connection's pipelining depth (>= 1). *)

val inflight : t -> int
(** Raw {!send}s whose responses have not been {!recv}ed yet. *)

val pipelined : t -> Wire.request list -> Wire.response list
(** Issue a batch with up to [depth] frames in flight, returning raw
    responses in request order ([Error] responses are returned, not
    raised — the batch always completes).  With depth 1 this degrades
    to sequential calls.
    @raise Wire.Protocol_error when the server has closed the
    connection, or while raw {!send}s are outstanding. *)

val send : t -> Wire.request -> unit
(** Raw pipelining primitive for load harnesses: queue one request
    (buffered until the next {!recv} flushes).  The caller must {!recv}
    exactly one response per send, in order, and may have at most
    [depth] outstanding.  Counted in {!frames}. *)

val recv : t -> Wire.response
(** The response to the oldest un-{!recv}ed {!send} (raw: [Error] is
    returned, not raised).
    @raise Wire.Protocol_error when nothing is in flight. *)

(** {2 Block data: one block verb} *)

val exchange :
  t -> puts:(string * (int * string) list) list -> gets:(string * int list) list -> string list
(** One [Exchange] frame: the server applies every put, then answers
    every get; the values come back in get order.  No-op (no frame) when
    every group is empty.
    @raise Wire.Protocol_error on an [Error] reply (an unknown store or
    an index out of bounds anywhere in the frame, in which case nothing
    changed) or a reply of the wrong length. *)

(** {2 Dynamic FD sessions (protocol v5)}

    Drivers for the streaming update verbs.  Cells travel as
    [Relation.Codec]-encoded strings (see [Dynserve.encode_row]). *)

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
