(** The row schedule of the ORAM partition methods ({!Or_oram_method},
    {!Ex_oram_method}): one [Exchange] frame per row.

    Each row r of a call does one access to the key ORAM ([kl], Ex-ORAM's
    KLF), which reads and updates the row's key in one go, and one write
    to the ID ORAM ([il], Ex-ORAM's IKL).  Its key comes from a lookup:
    its cell of the encrypted database, or two reads of the generators'
    ID ORAMs.  Frame r carries
    - puts: row r's lookup evictions, then row r−1's [kl] and [il]
      evictions;
    - gets: row r's [kl] and [il] paths, then row r+1's lookup (its
      cell, or its two generator paths).

    A frame before the first row fetches row 0's lookup, and a puts-only
    frame after the last row writes its evictions back, so a call over k
    rows is k + 2 frames.  The schedule is fixed by k alone.  Every
    access is a {!Oram.Path_oram.fetch} read, and every ORAM still sees
    one path read, then the same path written back, per access: a frame
    applies its puts before its gets, and an access is built only after
    the previous one on its ORAM has been answered.  The evictions ride
    in the call's one write-behind batch ({!Servsim.Frame.with_batch}),
    so nothing stays in flight when it returns. *)

type generator = {
  ids : Oram.Path_oram.t;  (** the generator's ID ORAM, r[ID] → payload *)
  label : string -> int;  (** the generator's label in a payload *)
}

type source =
  | Column of Enc_db.t * int
      (** Algorithms 1 and 4: the row's key is its cell in this column. *)
  | Generators of { gen1 : generator; gen2 : generator; base : int }
      (** Algorithms 2 and 4 for |X| ≥ 2 (Property 1): the row's key is
          {!Compression.key_of_labels} [~n:base] of its two generator
          labels.
          @raise Invalid_argument if a generator lacks the row. *)

type target = {
  kl : Oram.Path_oram.t;  (** key_X → the method's key payload *)
  il : Oram.Path_oram.t;  (** r[ID] → the method's ID payload *)
  record : key:string -> string option -> string * string;
      (** From the row's key and its previous [kl] payload, the new [kl]
          payload and the row's [il] payload; the method updates its
          counters here.  Called once per row. *)
}

val run : source -> target -> int list -> unit
(** [run source target rows] inserts [rows], in order.  A call that
    raises (a corrupt block, a generator without the row, a lost
    connection) leaves the evictions it had computed unsent, so the
    ORAMs it touched must not be used again. *)
