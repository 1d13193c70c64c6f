(** Seeded pseudo-random number generator (splitmix64).

    Used for everything that needs {e reproducible} randomness in the
    simulation: dataset generation, workload sampling, ORAM leaf
    selection and encryption IVs.  Splitmix64 is not cryptographically
    secure; protocol components that model cryptographic randomness take
    their source as a function ([int -> int] for ORAM leaves, a
    [Bytes.t] filler for cell IVs), so a cryptographic generator can be
    plugged in. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator (e.g. one per domain). *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val bytes : t -> int -> Bytes.t
(** [bytes t n] is [n] pseudo-random bytes. *)

val fill_bytes : t -> Bytes.t -> unit

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
