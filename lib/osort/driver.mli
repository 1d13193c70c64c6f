(** Drivers executing a comparator network over an abstract exchanger.

    The exchanger owns the data (plaintext in an enclave, or ciphertexts on
    a remote server) and performs one compare-exchange; the driver merely
    walks the fixed schedule.  The parallel driver exploits the fact that
    comparators within a stage touch disjoint indices: each domain runs a
    contiguous chunk of the stage with its own exchange closure (so
    per-worker RNG/cipher state is not shared), with a barrier between
    stages — the same structure as the paper's multi-threaded Sort
    (Fig. 6a). *)

val run : Network.t -> exchange:(up:bool -> int -> int -> unit) -> unit
(** Execute every stage sequentially. *)

val run_parallel :
  Network.t -> domains:int -> make_exchange:(int -> up:bool -> int -> int -> unit) -> unit
(** [run_parallel net ~domains ~make_exchange] executes each stage with
    [domains] worker domains.  [make_exchange w] builds worker [w]'s
    private exchange closure; it is called once for each [w] in
    [0 .. domains - 1], in order, in the calling domain, before any
    worker starts.
    @raise Invalid_argument if [domains < 1]. *)
