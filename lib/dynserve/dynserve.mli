(** Serving glue for dynamic FD sessions (§V over the wire).

    Adapts {!Core.Dynamic} — the Ex-ORAM maintenance engine that keeps
    every lattice structure alive so an update costs
    O(log n · polyloglog n) instead of a re-discovery — to the
    protocol-v5 verbs [Begin_dynamic]/[Insert_row]/[Delete_row]/
    [Revalidate], which [Store.Handler] serves through this module.

    Everything served through this module is deterministic in the
    [Begin_dynamic] seed and the update sequence: {!Store.Tenant}
    persists a session as its update history and rebuilds it by
    re-dispatching that history through a fresh handler, and the load
    harness asserts the daemon's [Fds_reply] digests bit-equal a
    one-shot library run of the same sequence. *)

val install : unit -> unit
(** Does nothing: the handler calls this module directly, so there is
    nothing to register.  It stays only because the end-to-end
    benchmark's daemon ([e2ebench/daemon.ml]) calls it, as
    [Service.Daemon.config]'s [domains] and [backend] stay for the same
    caller. *)

val encode_row : Relation.Value.t array -> string list
(** Cells in wire form: the fixed-width injective
    {!Relation.Codec.encode_value} encoding, one string per column. *)

val decode_row : string list -> (Relation.Value.t array, string) result
(** Inverse of {!encode_row}; [Error] names the first malformed cell. *)

val fd_of_status : Servsim.Wire.fd_status -> Fdbase.Fd.t * bool
(** Decode one [Fds_reply] entry back to the library's FD type. *)

val begin_dynamic :
  Servsim.Wire.request -> (Core.Dynamic.t * Servsim.Wire.response, string) result
(** Run initial discovery for a [Begin_dynamic] request and return the
    live session plus its initial [Fds_reply]; [Error] carries a
    client-fault message. *)

val dispatch : Core.Dynamic.t -> Servsim.Wire.request -> Servsim.Wire.response
(** Serve one [Insert_row]/[Delete_row]/[Revalidate] against a live
    session.  Deterministic, errors included, because journal replay
    re-dispatches the same requests to rebuild the session. *)
