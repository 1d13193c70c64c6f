(** Trivial linear-scan ORAM: every access reads and re-encrypts the whole
    array.  Obviously oblivious (the access pattern is the full scan,
    whatever the key), with O(n) access cost and O(1) client state.

    Serves two purposes: a simple correctness oracle for {!Path_oram} in
    the tests, and the ablation baseline for Table III ("what does the
    tree buy us"). *)

type t

type config = {
  capacity : int;
  key_len : int;
  payload_len : int;
}

val setup : name:string -> config -> Servsim.Server.t -> Crypto.Cell_cipher.t -> (int -> int) -> t
(** The random source is accepted for parity with the tree ORAMs'
    [setup] and unused. *)

val access : t -> key:string -> (string option -> string option) -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val read : t -> key:string -> string option [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val write : t -> key:string -> string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]
val remove : t -> key:string -> unit [@@lint.declassify "ORAM boundary: the server-visible trace is independent of key and payload (audited in the implementation); results are the trusted client's own plaintext"]

val client_state_bytes : t -> int
