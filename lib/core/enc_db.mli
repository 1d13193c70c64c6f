(** The outsourced encrypted database DB̂.

    Cell-level semantically secure encryption (§II-A): every attribute
    value of every record is individually encrypted (fixed-width encoding,
    so all cell ciphertexts have one public length) and stored in a server
    block store.  Only the client can decrypt; reads are traced as part of
    the adversary's view. *)

open Relation

type t

val outsource : Session.t -> Table.t -> t
(** Encrypt the client's table cell by cell and upload it.
    @raise Invalid_argument if the table's dimensions disagree with the
    session's public (n, m). *)

val read_cell : t -> row:int -> col:int -> Value.t [@@secret]
(** Client-side: fetch the ciphertext of one cell from S (one frame) and
    decrypt. *)

val cells : t -> col:int -> int list -> Value.t list Servsim.Frame.read
(** [cells t ~col rows]: the cells of [rows] in column [col], read by
    the frame that carries it.  Its get group is public (the slots).
    Callers keep a frame to a bounded number of cells (Sort loads
    B = {!Sort_backend.buffer_slots} at a time, the ORAM row schedule
    one).
    @raise Invalid_argument if a cell is out of bounds. *)

val n : t -> int
val m : t -> int
val store_name : t -> string
val session : t -> Session.t
