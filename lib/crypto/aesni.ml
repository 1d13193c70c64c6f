type schedule = Bytes.t

external available_stub : unit -> bool = "sfdd_aesni_available" [@@noalloc]
external expand_stub : string -> Bytes.t -> unit = "sfdd_aesni_expand" [@@noalloc]

external encrypt_block : schedule -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "sfdd_aesni_encrypt_block"
[@@noalloc]

external decrypt_block : schedule -> Bytes.t -> int -> Bytes.t -> int -> unit
  = "sfdd_aesni_decrypt_block"
[@@noalloc]

external cbc_encrypt : schedule -> Bytes.t -> int -> int -> int -> unit
  = "sfdd_aesni_cbc_encrypt"
[@@noalloc]

external cbc_decrypt :
  schedule -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> int -> unit
  = "sfdd_aesni_cbc_decrypt_byte" "sfdd_aesni_cbc_decrypt"
[@@noalloc]

let available = available_stub ()

let expand raw =
  let s = Bytes.create (22 * 16) in
  expand_stub raw s;
  s
