(** A protocol session between the client C and the server S.

    Bundles the client's secrets (cell cipher, randomness) with the
    simulated server and the public database dimensions, and hands out
    fresh store names for the per-attribute-set structures the methods
    allocate. *)

type t = {
  server : Servsim.Server.t;
  raw_key : string;  (** client's 16-byte secret key; S never sees it *)
  cipher : Crypto.Cell_cipher.t;
  rng : Crypto.Rng.t;  (** client randomness (ORAM leaves) *)
  n : int;  (** number of rows — public *)
  m : int;  (** number of columns — public *)
  mutable counter : int;
}

val create :
  ?seed:int -> ?keep_events:bool -> ?remote:Servsim.Remote.t -> n:int -> m:int -> unit -> t
(** Fresh session with a fresh server.  [seed] drives all client
    randomness (key, IVs, ORAM leaves) so runs are reproducible.  With
    [?remote] the server side is the connected daemon (see
    {!Servsim.Remote}); every block access is a real wire round
    trip. *)

val fresh_name : t -> string -> string
(** [fresh_name t prefix] returns a store name unused in this session. *)

val rand_int : t -> int -> int
val cost : t -> Servsim.Cost.t
val trace : t -> Servsim.Trace.t

val fresh_cipher : t -> Crypto.Cell_cipher.t
(** A cipher under the same secret key whose IV stream is split off the
    session's randomness, so no two calls replay the same IVs — one per
    worker domain in parallel sorting, so no mutable cipher state is
    shared across domains. *)
