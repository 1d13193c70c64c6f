(** Server-side request dispatch, shared by every serving mode.

    One [state] is one tenant session: the ciphertext stores of a single
    namespace, the access-pattern {!Trace} recorded where the adversary
    sits, and a per-session {!Cost} ledger (round trips and bytes on the
    wire).  The multi-tenant daemon ([Service.Daemon]) keeps one per
    namespace, so no accounting or trace state is ever shared across
    tenants. *)

type state

val create_state : unit -> state

(** {2 Dynamic FD sessions}

    The dynamic verbs ([Begin_dynamic]/[Insert_row]/[Delete_row]/
    [Revalidate]) are served by a pluggable engine: this module sits
    {e below} the discovery engine in the library graph (the engine's
    block stores are servsim stores), so the engine registers itself
    here as a provider of closures.  Executables that serve dynamic
    sessions call [Dynserve.install ()] once at startup; without a
    provider the verbs answer a clean [Error]. *)

type dyn = {
  dyn_dispatch : Wire.request -> Wire.response;
      (** serve one [Insert_row]/[Delete_row]/[Revalidate]; must be
          deterministic (including its errors), because journal replay
          re-dispatches the same requests to rebuild the session *)
  dyn_release : unit -> unit;  (** free the engine's retained structures *)
}

val set_dyn_provider : (Wire.request -> (dyn * Wire.response, string) result) -> unit
(** Register the engine.  Called with each [Begin_dynamic] request; on
    success returns the live session plus the response to that request
    (the initial [Fds_reply]); on failure a client-fault message that
    becomes an [Error] response.  Last registration wins. *)

val dynamic_available : unit -> bool
(** Is a dynamic-session provider registered in this process? *)

val dynamic_verb : Wire.request -> bool
(** Is this one of the v5 dynamic-session verbs? *)

val has_dyn : state -> bool
(** Does this session currently hold a live dynamic session? *)

val export_dyn : state -> Wire.request list
(** The session's dynamic update history in service order — the
    successful [Begin_dynamic] followed by every [Insert_row]/
    [Delete_row]/[Revalidate] dispatched to the live session.
    Re-dispatching these through {!handle} on a fresh state rebuilds the
    engine's structures, trace and counters bit-identically (the engine
    is deterministic given the [Begin_dynamic] seed); {!Store.Tenant}
    embeds exactly this list in its snapshots. *)

val release_dyn : state -> unit
(** Free the live dynamic session's structures, if any.  The update
    history is retained: eviction persists it via {!export_dyn} and the
    next rehydration replays it. *)

val handle : state -> Wire.request -> Wire.response
(** Dispatch one request against this session's stores.  Store ops,
    [Digest] and [Total_bytes] are served from the session state;
    [Ping] answers [Pong]; [Hello] and [Bye] answer [Ok] (connection
    lifecycle is the serving loop's job); [Stats] answers {!stats} —
    the daemon intercepts [Stats] and overlays its own figures, so only
    {!replay} sees this answer.
    @raise Wire.Protocol_error e.g. on access to a store that does not
    exist (serving loops turn this into an [Error] response). *)

val stats : state -> Wire.stats
(** The session's own [Stats] figures: its cost ledger ([frames],
    [bytes_in], [bytes_out]), its update counters (erroring dispatches
    included), and 1 or 0 in
    [dyn_sessions]; [sessions] is 1, uptime counts from the state's
    creation, and the latency percentiles and loop counters are 0. *)

val counted : Wire.request -> bool
(** Whether the frame counts toward the session's round-trip ledger.
    [Hello] (and the version byte, which never reaches the dispatcher)
    are connection setup and uncounted — mirroring the client's
    [Remote.frames]. *)

val account_request : state -> bytes:int -> unit
(** Charge one served request frame to the session ledger: one round
    trip plus [bytes] received.  Call before dispatching, so a [Stats]
    request observes itself in [frames] exactly like the client's
    [Remote.frames] counter does. *)

val account_response : state -> bytes:int -> unit
(** Charge the response bytes and refresh the server-storage gauge. *)

val replay : state -> Wire.request -> unit
(** Re-dispatch one journaled request exactly as the daemon's serving
    path would: charge {!account_request} with the frame's canonical
    encoded size, dispatch through {!handle} (a [Wire.Protocol_error]
    becomes the same [Error] response the server would have sent), then
    charge {!account_response} with the response's encoded size.
    Replaying a request journal in order rebuilds the session's stores,
    trace digests and cost ledger bit-identically to the original run. *)

val export_stores : state -> (string * string array) list
(** The session's stores as [(name, blocks)], one block per slot, sorted
    by name — a deterministic image for snapshotting. *)

val trace : state -> Trace.t
val cost : state -> Cost.t

val total_bytes : state -> int
(** Current ciphertext bytes held across this session's stores. *)

val started : state -> float
(** [Unix.gettimeofday] at session creation. *)
