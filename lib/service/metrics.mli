(** Daemon-wide service metrics: connection counts, per-namespace frame
    and byte counters, and a bounded reservoir of recent service
    latencies from which p50/p95/p99 are computed on demand.

    "Service latency" is the time from a fully reassembled request frame
    to its serialised response — the server-side cost of one frame,
    excluding network and client think time. *)

type t

val create : unit -> t

val uptime_s : t -> float

val on_accept : t -> unit
val on_close : t -> unit

val on_reject : t -> unit
(** A connection turned away at the connection cap. *)

val live : t -> int
val accepted : t -> int
val rejected : t -> int

(** {2 Event-loop syscall accounting}

    Counters for the daemon's one serving loop, daemon-wide: every
    connection's reads and writes, from its version byte on.  They are daemon-lifetime scalars held outside
    the per-namespace table, so {!evict_ns} never touches them;
    dividing their deltas by frames served gives the syscalls-per-op
    figure the bench reports. *)

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

val record_wake_frames : t -> int -> unit
(** Account one wakeup that served [n] complete frames across all of
    the loop's connections. *)

val wake_histogram : t -> (string * int) list
(** Frames-per-wake histogram as [(bucket_label, wakeups)] pairs in
    bucket order ("0", "1", "2", "3", "4-7", "8-15", "16-31", "32+"). *)

val total_frames : t -> int
(** Frames ever recorded by {!record}, including frames whose
    namespace entry has since been evicted. *)

val record :
  t -> namespace:string -> bytes_in:int -> bytes_out:int -> latency_s:float -> unit
(** Account one served frame to [namespace].  Tracking is bounded: past
    an internal cap of live entries ({!max_tracked}), frames of
    namespaces not already tracked fall into one shared catch-all
    bucket rather than growing the table. *)

val max_tracked : int
(** Cap on individually tracked namespaces (the catch-all bucket sits
    outside the cap). *)

val evict_ns : t -> string -> unit
(** The tenant was evicted: fold its frame and byte counters into the
    daemon-lifetime aggregates ({!evicted_frames}) and drop its entry —
    including the latency reservoir, whose samples are discarded (the
    percentile history of a cold tenant is not worth 32 KiB of floats).
    If the tenant returns, a fresh entry starts from zero; its session
    ledger (which backs [Stats_reply]) lives in the tenant state and is
    unaffected.  No-op for an untracked namespace. *)

val tracked : t -> int
(** Live per-namespace entries (catch-all bucket included). *)

val evicted : t -> int
(** Entries folded away by {!evict_ns} over the daemon's lifetime. *)

val evicted_frames : t -> int
(** Total frames accounted to entries since folded away. *)

val namespaces : t -> string list
(** Tracked namespaces, sorted; the catch-all bucket is excluded. *)

type summary = {
  frames : int;
  bytes_in : int;
  bytes_out : int;
  samples : int;  (** latency samples currently in the reservoir *)
  p50_s : float;
  p95_s : float;
  p99_s : float;
}

val ns_summary : t -> string -> summary
(** Zeros for a namespace that has served nothing. *)

val percentiles : float list -> float * float * float
(** Nearest-rank (p50, p95, p99) of an unsorted sample; (0,0,0) on the
    empty list.  Shared with the load harness so bench and daemon agree
    on the definition. *)
