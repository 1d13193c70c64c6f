(** Daemon-wide service metrics: uptime and the serving loop's syscall
    counters, plus the bounded latency reservoir each tenant keeps
    ({!Session.tenant}) and the percentile definition shared with the
    load harnesses.

    "Service latency" is the time from a fully reassembled request frame
    to its journaled response — the server-side cost of one frame,
    excluding network and client think time.  Frames and bytes are not
    counted here: each tenant's {!Servsim.Cost} ledger holds them. *)

type t

val create : unit -> t

val uptime_s : t -> float

(** {2 Event-loop syscall accounting}

    Counters for the daemon's one serving loop, daemon-wide: every
    connection's reads and writes, from its version byte on.  Dividing
    their deltas by frames served gives the syscalls-per-op figure the
    bench reports. *)

type syscalls = { reads : int; writes : int; wakeups : int; rounds : int }

val sys_read : t -> unit
(** One [read(2)] issued on a connection (including the read that
    returns [EAGAIN] and ends a drain). *)

val sys_write : t -> unit
(** One [write(2)] issued flushing a connection's output. *)

val sys_wakeup : t -> unit
(** One {!Evloop.wait} return with at least one ready event. *)

val sys_round : t -> unit
(** One event-loop iteration (every {!Evloop.wait} call). *)

val syscalls : t -> syscalls

val percentiles : float list -> float * float * float
(** Nearest-rank (p50, p95, p99) of an unsorted sample; (0,0,0) on the
    empty list.  Shared with the load harnesses so bench and daemon
    agree on the definition. *)

(** {2 Latency reservoir} *)

module Reservoir : sig
  type t
  (** The most recent {!size} latency samples, in seconds. *)

  val size : int
  (** 4096 samples. *)

  val create : unit -> t
  (** Empty; the sample array is allocated by the first {!add}. *)

  val add : t -> float -> unit
  (** Record one sample, overwriting the oldest once {!size} are held. *)

  val percentiles : t -> float * float * float
  (** {!Metrics.percentiles} of the samples held; (0,0,0) when empty. *)
end
