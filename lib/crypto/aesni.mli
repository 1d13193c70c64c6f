(** The AES-NI primitives under {!Aes128} (C stubs in [aesni_stubs.c]).

    Private to the library.  No function here checks a range: the caller
    ({!Aes128} or {!Cbc}) has checked every offset and length first, and
    nothing here may be called when {!available} is [false]. *)

type schedule
(** An expanded key: 11 encryption and 11 decryption round keys. *)

val available : bool
(** Whether this CPU executes AES-NI (CPUID, read once at module
    initialisation).  Always [false] where [aesni_stubs.c] was built without
    it: a non-x86 target, or a compiler without the [target] attribute. *)

val expand : (string[@secret]) -> schedule [@@secret]
(** [expand raw] for a 16-byte [raw]. *)

val encrypt_block : schedule -> Bytes.t -> int -> Bytes.t -> int -> unit
(** [encrypt_block s src src_off dst dst_off]: one 16-byte block. *)

val decrypt_block : schedule -> Bytes.t -> int -> Bytes.t -> int -> unit

val cbc_encrypt : schedule -> Bytes.t -> int -> int -> int -> unit
(** [cbc_encrypt s buf iv_off off nblocks]: CBC-encrypt [16*nblocks] bytes
    of [buf] at [off] in place, chaining from the IV at [iv_off]. *)

val cbc_decrypt :
  schedule -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> int -> unit
(** [cbc_decrypt s src src_off iv iv_off dst dst_off nblocks]; the IV may
    alias [src], [dst] must not overlap the ciphertext. *)
