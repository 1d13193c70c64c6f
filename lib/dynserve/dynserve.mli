(** Serving glue for dynamic FD sessions (§V over the wire).

    Adapts {!Core.Dynamic} — the Ex-ORAM maintenance engine that keeps
    every lattice structure alive so an update costs
    O(log n · polyloglog n) instead of a re-discovery — to the provider
    hook of {!Servsim.Handler}, which dispatches the protocol-v5 verbs
    [Begin_dynamic]/[Insert_row]/[Delete_row]/[Revalidate].

    Everything served through this module is deterministic in the
    [Begin_dynamic] seed and the update sequence: {!Store.Tenant}
    persists a session as its update history and rebuilds it by
    re-dispatching that history through a fresh provider, and the load
    harness asserts the daemon's [Fds_reply] digests bit-equal a
    one-shot library run of the same sequence. *)

val install : unit -> unit
(** Register this engine as the process's dynamic-session provider
    (see {!Servsim.Handler.set_dyn_provider}).  Idempotent; call once
    at executable startup, before any request is served or replayed. *)

val encode_row : Relation.Value.t array -> string list
(** Cells in wire form: the fixed-width injective
    {!Relation.Codec.encode_value} encoding, one string per column. *)

val decode_row : string list -> (Relation.Value.t array, string) result
(** Inverse of {!encode_row}; [Error] names the first malformed cell. *)

val fd_of_status : Servsim.Wire.fd_status -> Fdbase.Fd.t * bool
(** Decode one [Fds_reply] entry back to the library's FD type. *)

val begin_dynamic :
  Servsim.Wire.request ->
  (Servsim.Handler.dyn * Servsim.Wire.response, string) result
(** The provider function itself ({!install} registers exactly this):
    run initial discovery for a [Begin_dynamic] request and return the
    live session plus its initial [Fds_reply].  Exposed for tests that
    drive the provider without a server. *)
