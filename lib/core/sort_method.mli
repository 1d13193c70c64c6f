(** Sort: the oblivious-sorting-based partition computation (Algorithm 3,
    §IV-D).

    For an attribute set X the method (1) bitonic-sorts the array of
    (key_X, r[ID]) pairs by key, (2) makes one linear pass replacing each
    key by its run index — the compressed label_X — and (3) bitonic-sorts
    back by r[ID].  The final array B preserves π_X ordered by record ID;
    [card + 1] is |π_X|.

    Every step is a fixed comparator network or a fixed scan, so the
    server's view is bit-identical for any two databases of the same size
    (the strongest form of Definition 2; tested via full trace digests).

    Every step moves data in fixed chunks.  A network runs pass by
    pass ({!Osort.Network.passes} with [block] = {!Sort_backend.buffer_slots},
    B): whole components of a pass, packed into frames of at most B
    slots, are read in one batch, run through every stage of the pass
    on the decrypted buffer and written back in one batch.  The initial
    load, the relabelling scan and the label reads move at most B slots
    per batch.  The client so holds at most B decrypted elements per
    working domain — O(1) client memory (§IV-D(c)) — and a call charges
    exactly that to the session's cost ledger while it runs.  For
    bitonic, a network over [length] slots costs ⌈length/B⌉ read frames
    per pass: 1 pass at [length] ≤ 64, 4 at 256, 9 at 2048.

    A call holds each write batch, encrypted, and sends it as the puts
    of its next frame, ahead of that frame's gets (a {!Servsim.Frame.t} per
    call), and ends with one puts-only frame: one frame per read batch,
    with the same blocks, trace events and ciphertexts as a frame per
    batch.  At most one batch is held: a load chunk of pads only reads
    nothing, so the batch before it is sent in a frame of its own.
    Nothing is in flight between calls.

    [domains] > 1 exercises the paper's parallel mode (Fig. 6a): network
    passes are executed by that many OCaml domains, each through its own
    {!Sort_backend.t.worker} access path.  On the encrypted backend this
    needs the session's trace off (see {!Servsim.Trace.set_enabled}) and
    a local server: a traced or remote session raises [Invalid_argument]
    before any worker starts.  Each worker holds its own write batch per
    slice of a pass and sends the last one before the pass barrier;
    the call's held batch is sent before the workers start. *)

open Relation

type network =
  | Bitonic
  | Odd_even_merge  (** ablation alternative *)

type handle

val attrs : handle -> Attrset.t
val cardinality : handle -> int

val exchange :
  compare:(Sort_backend.elt -> Sort_backend.elt -> int) -> Sort_backend.io -> Servsim.Frame.t ->
  Osort.Network.component array -> unit
(** [exchange ~compare io frames slice] runs a slice of one network
    pass (consecutive components, as {!Osort.Driver} hands them over).
    It packs whole components, in order, into frames of at most
    {!Sort_backend.buffer_slots} (B) slots: per frame, one frame of
    [frames] reads all its slots (and carries whatever [frames] held),
    each component's comparators run in stage order on the decrypted
    buffer, then a write batch that rewrites every slot read, swapped or
    not, so the server cannot tell which, is put in [frames].  Reads and
    writes list the slots component by component, each ascending: a
    one-stage pass of 2-slot components is read and written in
    comparator order (i1, j1, i2, j2, ...), W = B/2 comparators a frame.
    @raise Invalid_argument if a component holds more than B slots. *)

val compute : ?network:network -> ?domains:int -> Sort_backend.t -> Attrset.t -> handle
(** Run Algorithm 3 over a backend already filled with (key, id) pairs,
    as a call of its own: its last write batch is sent before it
    returns.  Charges no client memory itself: {!single} and {!combine}
    charge their working buffers around it. *)

val single :
  ?network:network -> ?domains:int -> ?backend:(n:int -> Sort_backend.t) ->
  Enc_db.t -> int -> handle
(** Build the pair array from an encrypted column (B cells per read
    frame and B slots per write batch), then {!compute}.
    [backend] defaults to {!Sort_backend.encrypted} on the database's
    session; pass [fun ~n -> Sort_backend.enclave ~n] for the SGX mode. *)

val combine :
  ?network:network -> ?domains:int -> ?backend:(n:int -> Sort_backend.t) ->
  Session.t -> Attrset.t -> handle -> handle -> handle
(** Pairs keyed by label_X1 · n + label_X2 read off the generators'
    result arrays (both ordered by r[ID]), W rows at a time — one frame
    reads both generators' labels, B decrypted elements in all, and the
    write batch of the pairs follows — then {!compute}. *)

val label_of_row : handle -> row:int -> int
(** label_X of record [row] (a one-slot read batch). *)

val labels : handle -> int array
(** All labels ordered by record ID (one read batch per B slots). *)

val release : handle -> unit

val oracle :
  ?network:network -> ?domains:int -> ?backend:(n:int -> Sort_backend.t) ->
  Session.t -> Enc_db.t -> handle Fdbase.Lattice.oracle
