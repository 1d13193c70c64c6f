(** Minimal CSV reader/writer (RFC-4180 quoting subset) for loading
    external datasets and dumping tables.  The first line is the header. *)

val parse_line : string -> string list
(** Split one CSV line into fields, honouring double-quoted fields with
    escaped quotes ([""]). *)

val of_string : string -> Table.t
(** Parse a whole CSV document; cells become {!Value.t} via
    {!Value.of_string}.  @raise Invalid_argument on ragged rows or empty
    input. *)

val load : string -> Table.t
(** Read a CSV file from disk. *)

val to_string : Table.t -> string
