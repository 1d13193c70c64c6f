(** Drivers executing a comparator network over an abstract exchanger.

    The exchanger owns the data (plaintext in an enclave, or ciphertexts on
    a remote server) and executes a slice of one stage: consecutive
    comparators that touch pairwise-disjoint slots, so it may run them in
    any order or all at once.  The driver merely walks the fixed schedule;
    how an exchanger batches its slice is its own business (Sort cuts it
    into chunks of W comparators, one read and one write batch each).

    The parallel driver gives each domain a contiguous share of every
    stage, with its own exchange closure (so per-worker RNG/cipher state
    is not shared) and a barrier between stages — the same structure as
    the paper's multi-threaded Sort (Fig. 6a). *)

val run : Network.t -> exchange:(Network.comparator array -> unit) -> unit
(** Execute every stage sequentially: [exchange] gets each whole stage,
    in order. *)

val run_parallel :
  Network.t -> domains:int -> make_exchange:(int -> Network.comparator array -> unit) -> unit
(** [run_parallel net ~domains ~make_exchange] executes each stage with
    [domains] worker domains: worker [w] gets the [w]-th of [domains]
    contiguous shares of the stage, of [⌈|stage| / domains⌉] comparators
    (the last ones may be shorter or empty; an empty share is skipped).
    [make_exchange w] builds worker [w]'s private exchange closure; it is
    called once for each [w] in [0 .. domains - 1], in order, in the
    calling domain, before any worker starts.  With [domains = 1] this is
    {!run}.  A worker whose exchange raises breaks the stage barrier, so
    the others stop at their next stage; every domain is joined, then
    the first exception is raised again.
    @raise Invalid_argument if [domains < 1]. *)
