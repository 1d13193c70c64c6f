(** From-scratch AES-128 block cipher (FIPS-197).

    {!expand} picks the implementation once, from CPUID at module
    initialisation, and the key records it:

    - AES-NI (C stubs), on every x86 host that has the instructions.  It
      runs in constant time, with no secret-indexed table, and {!Cbc} runs
      a whole chain of blocks through it in one call;
    - the 32-bit T-table (fused-round) cipher ({!Table}), the only path on
      hosts without AES-NI or on builds without the stubs: four 256-entry
      word tables per direction collapse SubBytes, ShiftRows and
      MixColumns into table lookups and xors, the key schedule is
      word-based, and the round state lives in a per-key preallocated
      scratch.

    AES is AES: both produce the same bytes, so the choice changes no
    ciphertext, trace digest or result, and nothing configures it.  A
    block operation performs no allocation on either path.  The S-box and
    its inverse are derived programmatically from the GF(2^8)
    multiplicative inverse and the Rijndael affine transform (and the
    T-tables from them), so there is no hand-typed 256-entry table to get
    wrong.  Both paths are verified against the FIPS-197 appendix vectors,
    the full NIST AESAVS GFSbox/KeySbox/VarTxt known-answer sets, a
    1000-iteration Monte Carlo chain, and differentially against
    {!Reference} in the test suite. *)

type table_key
(** A T-table key schedule plus its round-state scratch. *)

(** An expanded AES-128 key schedule (11 round keys for each direction) in
    the form its implementation needs.  The constructors are visible so
    {!Cbc} can hand a whole chain to the AES-NI stubs; only {!expand} and
    {!Table.expand} build keys.  Because of the T-table scratch a [key]
    must not be used from two domains concurrently — clone the cipher per
    worker instead (as the encrypted [Sort_backend] does for each
    parallel sort worker). *)
type key = private
  | Aesni of Aesni.schedule  (** hardware round keys *)
  | Ttable of table_key  (** software schedule *)

val block_size : int
(** Size of an AES block in bytes (16). *)

val expand : (string[@secret]) -> key [@@secret]
(** [expand raw] expands a 16-byte raw key into a key schedule for the
    live implementation: AES-NI when this CPU has it, else the T-table.
    Both the raw key and the schedule are secret-flow sources for R11.
    @raise Invalid_argument if [raw] is not exactly 16 bytes. *)

val encrypt_block : key -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit
(** Encrypt one 16-byte block of [src] at [src_off] into [dst] at [dst_off].
    [src] and [dst] may be the same buffer at the same offset.
    @raise Invalid_argument if either 16-byte range is out of bounds. *)

val decrypt_block : key -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit
(** Inverse of {!encrypt_block}. *)

(** The T-table implementation, which {!expand} falls back to on hosts
    without AES-NI.  A key built here runs the T-table path through every
    function of this module and of {!Cbc}; the tests use it to compare the
    two paths. *)
module Table : sig
  val expand : (string[@secret]) -> key [@@secret]
  (** @raise Invalid_argument if the raw key is not exactly 16 bytes. *)
end

(** The original byte-at-a-time FIPS-197 transcription, kept as the
    differential-testing oracle for the AES-NI and T-table paths.  Same
    behaviour, an order of magnitude slower; do not use outside
    tests/benchmarks. *)
module Reference : sig
  type key

  val expand : (string[@secret]) -> key [@@secret]
  (** @raise Invalid_argument if the raw key is not exactly 16 bytes. *)

  val encrypt_block :
    key -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit

  val decrypt_block :
    key -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit
end
