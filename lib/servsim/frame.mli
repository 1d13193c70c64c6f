(** Client-built [Exchange] frames, on the one core {!Block_store.exchange}.

    Every client that schedules its own frames builds them here: a Path
    ORAM access is a {!read}, and the ORAM methods' row schedule,
    streaming updates and Sort each carry their reads and writes in
    one {!t}.  A frame applies its puts before its gets, so a write
    sent in the frame of a later read lands, and is traced, exactly
    where a frame of its own would have put it. *)

type gets = (Block_store.t * int list) list
type puts = (Block_store.t * (int * string) list) list

type 'a read = {
  gets : gets;  (** the get groups a frame carries for this read *)
  finish : string list -> 'a;  (** the result, from the blocks read at [gets], in order *)
}
(** A read in two phases, so that one frame can carry it beside other
    reads and beside writes.  A read of client-local data has no
    groups. *)

val map : ('a -> 'b) -> 'a read -> 'b read
(** The same gets, their result passed through [f]. *)

val both : 'a read -> 'b read -> ('a * 'b) read
(** Two reads in one frame: the first's groups, then the second's.  The
    first finishes first. *)

val all : 'a read list -> 'a list read
(** Reads in one frame, their groups in list order.  They finish in
    list order. *)

val get : 'a read -> 'a
(** A read in a gets-only frame of its own. *)

val send : puts -> unit
(** Writes in a puts-only frame of their own. *)

(** {2 Write-behind}

    A caller that alternates reads and writes holds each write batch
    and sends it as the puts of its next frame, which halves its
    frames.  The batch belongs to one call: {!with_batch} creates it,
    runs the call and sends what is still held, so nothing is in
    flight between two calls, nor between two sessions. *)

type t
(** One call's held write batch. *)

val with_batch : (t -> 'a) -> 'a
(** [with_batch f] runs [f] over an empty batch, then sends the batch
    still held in a puts-only frame.  A call that raises leaves it
    unsent, so the stores it wrote to must not be used again. *)

val put : t -> puts -> unit
(** [put t puts] holds [puts] until the next frame.  A batch still held
    (two puts with no read between) is first sent in a puts-only frame,
    so at most one batch is ever held.  The blocks must be final
    (encrypted) when they are put. *)

val read : t -> 'a read -> 'a
(** One frame: the held puts, then the read's gets.  The batch is empty
    afterwards. *)

val flush : t -> unit
(** Send the held puts, if any, in a puts-only frame. *)
