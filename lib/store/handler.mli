(** Server-side request dispatch, shared by every serving mode.

    One [state] is one tenant session: the ciphertext stores of a single
    namespace, the access-pattern {!Servsim.Trace} recorded where the
    adversary sits, a per-session {!Servsim.Cost} ledger (round trips and
    bytes on the wire), and at most one live {!Core.Dynamic} session.  The multi-tenant daemon ([Service.Daemon]) keeps one per
    namespace, so no accounting or trace state is ever shared across
    tenants. *)

open Servsim

type state

val create_state : unit -> state

(** {2 Dynamic FD sessions}

    The dynamic verbs ([Begin_dynamic]/[Insert_row]/[Delete_row]/
    [Revalidate]) are served by {!Core.Dynamic} through {!Dynserve}:
    [Begin_dynamic] runs {!Dynserve.begin_dynamic}, each update runs
    {!Dynserve.dispatch}, which is deterministic (errors included)
    because journal replay re-dispatches the same requests to rebuild
    the session. *)

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
    is deterministic given the [Begin_dynamic] seed); {!Tenant}
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
