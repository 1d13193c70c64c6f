open Relation

type handle = {
  attrs : Attrset.t;
  kl : Oram.Path_oram.t; (* key_X -> label_X *)
  il : Oram.Path_oram.t; (* r[ID] -> label_X *)
  mutable card : int;
  session : Session.t;
}

let attrs h = h.attrs
let cardinality h = h.card

let make_orams session attrs ~key_len =
  let n = session.Session.n in
  let kl =
    Oram.Path_oram.setup
      ~name:(Session.fresh_name session "or-kl")
      { capacity = n; key_len; payload_len = 8 }
      session.Session.server session.Session.cipher (Session.rand_int session)
  in
  let il =
    Oram.Path_oram.setup
      ~name:(Session.fresh_name session "or-il")
      { capacity = n; key_len = 8; payload_len = 8 }
      session.Session.server session.Session.cipher (Session.rand_int session)
  in
  { attrs; kl; il; card = 0; session }

(* The inner step of Algorithms 1 and 2 (lines 5-10 / 7-12), fused: the
   O^KL read and O^KL write are one access whose update assigns the
   label (the key's old one, or the next fresh one), and the O^IL write
   stores it under r[ID].  The accesses are unconditional, so the
   server's view does not depend on whether key_X was seen before. *)
let target h =
  {
    Oram_rows.kl = h.kl;
    il = h.il;
    record =
      (fun ~key:_ prev ->
        let label =
          match prev with
          | Some p -> Compression.label_of_payload p
          | None ->
              h.card <- h.card + 1;
              h.card - 1
        in
        let p = Compression.payload_of_label label in
        (p, p));
  }

let all_rows session = List.init session.Session.n Fun.id

let single db col =
  let session = Enc_db.session db in
  let h = make_orams session (Attrset.singleton col) ~key_len:Compression.single_key_len in
  Oram_rows.run (Oram_rows.Column (db, col)) (target h) (all_rows session);
  h

let label_of_row h ~row =
  match Oram.Path_oram.read h.il ~key:(Codec.encode_int row) with
  | Some p -> Compression.label_of_payload p
  | None -> invalid_arg "Or_oram_method.label_of_row: record not present"

let generator h = { Oram_rows.ids = h.il; label = Compression.label_of_payload }

let combine session x h1 h2 =
  let h = make_orams session x ~key_len:Compression.multi_key_len in
  Oram_rows.run
    (Oram_rows.Generators { gen1 = generator h1; gen2 = generator h2; base = session.Session.n })
    (target h) (all_rows session);
  h

let release h =
  Oram.Path_oram.destroy h.kl;
  Oram.Path_oram.destroy h.il

let oracle session db =
  {
    Fdbase.Lattice.single =
      (fun col ->
        ignore session;
        let h = single db col in
        (h, h.card));
    combine =
      (fun x h1 h2 ->
        let h = combine session x h1 h2 in
        (h, h.card));
    release;
  }
