type t = {
  server : Servsim.Server.t;
  raw_key : string;
  cipher : Crypto.Cell_cipher.t;
  rng : Crypto.Rng.t;
  n : int;
  m : int;
  mutable counter : int;
}

let cipher_with raw_key iv_rng =
  Crypto.Cell_cipher.create ~iv_rng:(fun b -> Crypto.Rng.fill_bytes iv_rng b) raw_key

let create ?(seed = 0x5EC5E55) ?keep_events ?remote ~n ~m () =
  let key_rng = Crypto.Rng.create seed in
  let raw_key = Bytes.to_string (Crypto.Rng.bytes key_rng 16) in
  let cipher = cipher_with raw_key (Crypto.Rng.split key_rng) in
  {
    server = Servsim.Server.create ?keep_events ?remote ();
    raw_key;
    cipher;
    rng = Crypto.Rng.split key_rng;
    n;
    m;
    counter = 0;
  }

let fresh_cipher t = cipher_with t.raw_key (Crypto.Rng.split t.rng)

let fresh_name t prefix =
  t.counter <- t.counter + 1;
  Printf.sprintf "%s-%d" prefix t.counter

let rand_int t bound = Crypto.Rng.int t.rng bound
let cost t = Servsim.Server.cost t.server
let trace t = Servsim.Server.trace t.server
