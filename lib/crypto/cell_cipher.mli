(** Semantically secure cell encryption (CBC$): AES-128-CBC under a secret
    key with a fresh random IV prepended to every ciphertext.

    This is the cell-level encryption the paper assumes for the outsourced
    database (§II-A): every attribute value of every record is encrypted
    individually, and the client re-encrypts on every write so the server
    never sees a repeated ciphertext.

    The cipher carries preallocated scratch (IV buffer, round state inside
    the AES key, a decrypt buffer), so a [t] must not be shared between
    domains — build one per worker, as the encrypted
    [Sort_backend] does for each parallel sort worker.
    Encrypting a cell performs exactly one allocation (the ciphertext);
    the bulk [_many] entry points let the ORAM layers push a whole path or
    exchange batch through the cipher in one call. *)

type t

val create : ?iv_rng:(Bytes.t -> unit) -> (string[@secret]) -> t
(** [create raw_key] builds a cipher from a 16-byte key.  [iv_rng] supplies
    IV randomness (defaults to a splitmix64 generator seeded from the key);
    pass a cryptographic generator for cryptographic-strength IVs. *)

val encrypt : t -> string -> string [@@lint.declassify "ciphertext under CBC$ with fresh IVs is public by IND-CPA; it reveals only its length, i.e. Size(DB)"]
(** [encrypt t plaintext] is [iv || cbc_encrypt plaintext] under a fresh IV.
    Repeated calls on equal plaintexts yield distinct ciphertexts. *)

val decrypt : t -> string -> string [@@secret]
(** Inverse of {!encrypt}.  The result is plaintext cell content — a
    secret-flow source for R11.  @raise Invalid_argument on malformed
    input. *)

val encrypt_from : t -> Bytes.t -> off:int -> len:int -> Bytes.t -> int -> int [@@lint.declassify "ciphertext under CBC$ with fresh IVs is public by IND-CPA; it reveals only its length, i.e. Size(DB)"]
(** [encrypt_from t src ~off ~len dst dst_off] encrypts the plaintext
    [src.(off .. off+len-1)], writing the whole cell (IV ‖ CBC body ‖
    padding, encrypted in place) into [dst] at [dst_off], and returns its
    length, [ciphertext_len ~plaintext_len:len].  {!encrypt} is this on a
    fresh buffer: same IV stream, identical ciphertext bytes for
    identical plaintext bytes.  Lets callers that assemble plaintexts in
    a reused buffer (the ORAM path codec) encrypt without per-block
    plaintext allocations.
    @raise Invalid_argument if either range is out of bounds. *)

val decrypt_to : t -> string -> Bytes.t -> int -> int
(** [decrypt_to t ciphertext dst dst_off] decrypts the cell body into [dst]
    at [dst_off] and returns the plaintext length (padding validated and
    stripped; [dst] must have room for the padded body, i.e. ciphertext
    length - 16).  @raise Invalid_argument on malformed input. *)

val encrypt_many : t -> string list -> string list [@@lint.declassify "ciphertext under CBC$ with fresh IVs is public by IND-CPA; it reveals only its length, i.e. Size(DB)"]
(** [encrypt_many t pts] encrypts each plaintext in order; equivalent to
    [List.map (encrypt t)] (same IV stream, same ciphertexts). *)

val decrypt_many : t -> string list -> string list [@@secret]
(** [decrypt_many t cts] decrypts each cell in order through a shared
    scratch buffer: one allocation per cell instead of four.  Like
    {!decrypt}, the results are secret plaintext. *)

val ciphertext_len : plaintext_len:int -> int
(** Length of the ciphertext produced for a plaintext of the given length
    (IV + PKCS#7-padded body).  Needed for fixed-width server storage. *)
