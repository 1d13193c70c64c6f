open Relation

type t = {
  session : Session.t;
  store : Servsim.Block_store.t;
  name : string;
  n : int;
  m : int;
}

let outsource (session : Session.t) table =
  let n = Table.rows table and m = Table.cols table in
  if n <> session.Session.n || m <> session.Session.m then
    invalid_arg "Enc_db.outsource: table dimensions disagree with session";
  let name = Session.fresh_name session "db" in
  let store = Servsim.Server.create_store session.Session.server name ~slots:(n * m) in
  (* The whole upload is one bulk cipher call and one Exchange frame /
     round trip. *)
  let pts =
    List.init (n * m) (fun slot ->
        Codec.encode_value (Table.cell table ~row:(slot / m) ~col:(slot mod m)))
  in
  Servsim.Block_store.write_many store
    (List.mapi
       (fun slot ct -> (slot, ct))
       (Crypto.Cell_cipher.encrypt_many session.Session.cipher pts));
  { session; store; name; n; m }

let slot t ~row ~col =
  if row < 0 || row >= t.n || col < 0 || col >= t.m then invalid_arg "Enc_db: cell out of bounds";
  (row * t.m) + col

let decode_cell t c =
  Codec.decode_value
    (Crypto.Cell_cipher.decrypt t.session.Session.cipher c
    [@lint.declassify
      "client-side decode of the fetched plaintext; its shape depends only on the \
       plaintext length, public under Size(DB)"])

let cells t ~col rows =
  {
    Servsim.Frame.gets = [ (t.store, List.map (fun row -> slot t ~row ~col) rows) ];
    finish = (fun blocks -> List.map (decode_cell t) blocks);
  }

let read_cell t ~row ~col = decode_cell t (Servsim.Block_store.read t.store (slot t ~row ~col))
let n t = t.n
let m t = t.m
let store_name t = t.name
let session t = t.session
