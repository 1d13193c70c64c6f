(** Drivers executing a comparator network, pass by pass
    ({!Network.passes}), over an abstract exchanger.

    The exchanger owns the data (plaintext in an enclave, or ciphertexts on
    a remote server) and executes a slice of one pass: consecutive
    components, which share no slot, so it may run them in any order or
    all at once, each one's comparators in stage order.  The driver
    merely walks the fixed schedule; how an exchanger batches its slice
    is its own business (Sort packs whole components into frames of at
    most B slots, one read and one write batch each).

    The parallel driver gives each domain a contiguous share of every
    pass's components, with its own exchange closure (so per-worker
    RNG/cipher state is not shared) and a barrier between passes — the
    structure of the paper's multi-threaded Sort (Fig. 6a), a pass in
    place of a stage. *)

val run : Network.pass array -> exchange:(Network.component array -> unit) -> unit
(** Execute every pass sequentially: [exchange] gets each whole pass's
    components, in order. *)

val run_parallel :
  Network.pass array -> domains:int -> make_exchange:(int -> Network.component array -> unit) ->
  unit
(** [run_parallel passes ~domains ~make_exchange] executes each pass
    with [domains] worker domains: worker [w] gets the [w]-th of
    [domains] contiguous shares of the pass's components, of
    [⌈|components| / domains⌉] each (the last ones may be shorter or
    empty; an empty share is skipped).  [make_exchange w] builds worker
    [w]'s private exchange closure; it is called once for each [w] in
    [0 .. domains - 1], in order, in the calling domain, before any
    worker starts.  With [domains = 1] this is {!run}.  A worker whose
    exchange raises breaks the pass barrier, so the others stop at their
    next pass; every domain is joined, then the first exception is
    raised again.
    @raise Invalid_argument if [domains < 1]. *)
