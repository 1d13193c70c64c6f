(** Common interface of key-value ORAM constructions (Definition 4 of the
    paper).

    An ORAM stores encrypted (key, value) pairs on the server such that
    the server's view of an access is independent of the key accessed and
    of whether the access is a read, a write, or a removal.  All three
    logical operations are implemented by one physical [access]
    procedure; the [update] function runs inside the client and decides,
    invisibly to the server, what happens to the stored value.

    {!Path_oram} and {!Linear_oram} satisfy this signature (checked
    below); {!Recursive_path_oram} and {!Omap} have integer- and
    budgeted-value-keyed variants of the same shape.  Construction is not
    part of it: each [setup] takes the parameters its structure needs. *)

module type S = sig
  type t

  type config = {
    capacity : int;  (** maximum number of live (key, value) pairs *)
    key_len : int;  (** fixed byte width of keys *)
    payload_len : int;  (** fixed byte width of values *)
  }

  val access : t -> key:string -> (string option -> string option) -> string option
  (** One oblivious access: the previous value bound to [key] (or [None])
      is passed to [update]; the result replaces it ([None] removes the
      binding).  Returns the previous value.  The server-visible behaviour
      is identical for all keys and all [update] functions. *)

  val dummy_access : t -> unit
  (** A physical access carrying no logical operation, indistinguishable
      from {!access} to the server. *)

  val read : t -> key:string -> string option
  val write : t -> key:string -> string -> unit
  val remove : t -> key:string -> unit

  val live_blocks : t -> int
  val client_state_bytes : t -> int
  val access_count : t -> int
  val destroy : t -> unit
end

(* Compile-time conformance checks. *)
module Check_path : S = Path_oram
module Check_linear : S = Linear_oram
