(** Client-built [Exchange] frames.

    The methods that schedule their own frames build them here: the
    ORAM row schedule ({!Oram_rows}), streaming updates
    ({!Ex_oram_method}) and Sort ({!Sort_method}).  A frame applies its
    puts before its gets ({!Servsim.Block_store.exchange}), so a write
    sent in the frame of a later read lands, and is traced, exactly
    where a frame of its own would have put it. *)

type gets = (Servsim.Block_store.t * int list) list
type puts = (Servsim.Block_store.t * (int * string) list) list

val exchange : puts:puts -> gets:gets -> string list list
(** One [Exchange] frame: [puts] applied first, then every get answered,
    cut into one block list per get group. *)

type 'a read = {
  gets : gets;  (** the get groups a frame carries for this read *)
  finish : string list list -> 'a;  (** the result, from one block list per group *)
}
(** A read in two phases, so that one frame can carry it beside other
    reads and beside writes.  A read of client-local data has no
    groups. *)

val map : ('a -> 'b) -> 'a read -> 'b read
(** The same gets, their result passed through [f]. *)

val both : 'a read -> 'b read -> ('a * 'b) read
(** Two reads in one frame: the first's groups, then the second's. *)

val get : 'a read -> 'a
(** A read in a gets-only frame of its own. *)

val send : puts -> unit
(** Writes in a puts-only frame of their own. *)

(** {2 Write-behind}

    A caller that alternates reads and writes holds each write batch
    and sends it as the puts of its next frame, which halves its
    frames.  The batch belongs to one call: the call creates it, reads
    through it and flushes it before it returns, so nothing is in
    flight between two calls, nor between two sessions. *)

type t
(** One call's held write batch. *)

val create : unit -> t
(** An empty batch that holds what it is given until the next frame. *)

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
