(** A reusable synchronisation barrier for a fixed party count, used to
    separate network stages among persistent worker domains. *)

type t

exception Broken
(** Raised by {!wait} once the barrier is broken. *)

val create : int -> t
(** [create parties] — @raise Invalid_argument if [parties < 1]. *)

val wait : t -> unit
(** Blocks until all parties have called [wait] for the current phase.
    @raise Broken if the barrier is broken before the phase completes,
    or already was. *)

val break : t -> unit
(** Break the barrier for good: every party waiting now, and every later
    {!wait}, raises {!Broken}.  A party that fails calls it, so the
    others do not wait for it forever. *)
