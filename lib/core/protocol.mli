(** End-to-end secure FD discovery (the protocol Π of §VI): encrypt and
    outsource the client's table, then run the database-level lattice
    search with one of the three oblivious attribute-level methods.

    The result carries the discovered FDs — which must equal the
    plaintext TANE output exactly — together with the cost snapshot for
    the paper's three metrics and the server's trace digests for
    obliviousness checks. *)

open Relation

type method_ =
  | Or_oram  (** Algorithms 1–2 (§IV-C) *)
  | Ex_oram  (** extended dynamic method (§V) *)
  | Sort  (** Algorithm 3 (§IV-D) *)

val method_name : method_ -> string

type report = {
  fds : Fdbase.Fd.t list;
  sets_checked : int;
  plan : Attrset.t list;
  cost : Servsim.Cost.snapshot;
  elapsed_s : float;
  trace_full : int64;
  trace_shape : int64;
  trace_count : int;
  step_round_trips : int;
      (** round trips of the measured unit alone (the final partition
          computation in {!partition_cardinality}; whole run otherwise) *)
  step_bytes : int;  (** bytes moved (both directions) by the measured unit *)
}

val finish : Session.t -> Fdbase.Lattice.result -> t0:float -> report
(** [finish session result ~t0] is the report of a discovery that ran on
    [session] and started at [t0] ([Unix.gettimeofday]): [result]'s FDs
    and plan, the session's cost snapshot and trace digests, and the
    time elapsed since [t0].  {!discover} and [Enclave.discover] both
    end here. *)

val modeled_network_seconds : ?rtt_s:float -> ?gbps:float -> report -> float
(** [modeled_network_seconds r] is the wall-clock the measured unit would
    add on a network link: [step_round_trips · rtt + step_bytes / rate].
    Defaults model the paper's testbed: 1 Gbps LAN, 0.2 ms RTT.  Add it to
    [elapsed_s] (pure computation) to compare deployments — the paper's
    client-server runtimes are dominated by this term for Sort.

    Since wire protocol v2, [step_round_trips] counts one trip per wire
    frame (batched ORAM paths are one frame each way), so this estimate is
    consistent with the frames an actual remote run performs. *)

val discover :
  ?seed:int ->
  ?max_lhs:int ->
  ?remote:Servsim.Remote.t ->
  method_ ->
  Table.t ->
  report
(** Run the whole protocol on a fresh session.  With [?remote] the
    server side is the daemon at the other end of the connection (in
    this process or another) and every store operation is a real wire
    frame (see {!Servsim.Remote}); the report's cost ledger is identical
    to a local run. *)

val partition_cardinality :
  ?seed:int -> method_ -> Table.t -> Attrset.t -> int * report
(** Attribute-level only: obliviously compute |π_X| for one attribute set
    (computing generator partitions first per Property 1).  This is the
    unit the paper benchmarks in §VII. *)

val discover_approx :
  ?seed:int -> ?max_lhs:int ->
  epsilon:float -> method_ -> Table.t -> Fdbase.Approx.result
(** ε-approximate FD discovery (see {!Fdbase.Approx}) over the same
    oblivious attribute-level oracles.  The leakage grows accordingly: the
    adversary learns the ε-approximate FDs instead of the exact ones. *)

val pp_report : Schema.t -> Format.formatter -> report -> unit
