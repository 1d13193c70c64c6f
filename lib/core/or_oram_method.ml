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

(* The shared inner step of Algorithms 1 and 2 (lines 5-10 / 7-12): one
   O^KL read, one O^IL write, one O^KL write — unconditionally, so the
   server's view does not depend on whether key_X was seen before. *)
let process_key h ~row key =
  let prev = Oram.Path_oram.read h.kl ~key in
  let fresh = prev = None in
  let label =
    match prev with Some p -> Compression.label_of_payload p | None -> h.card
  in
  Oram.Path_oram.write h.il ~key:(Codec.encode_int row) (Compression.payload_of_label label);
  Oram.Path_oram.write h.kl ~key (Compression.payload_of_label label);
  if fresh then h.card <- h.card + 1

let insert_single h db ~row =
  let v = Enc_db.read_cell db ~row ~col:(Attrset.min_elt h.attrs) in
  process_key h ~row
    (Compression.key_of_value
       (v
       [@lint.declassify
         "trusted-client FD state; the server sees only the oblivious OR-ORAM \
          accesses and the result reveals only FD(DB)"]))

let single db col =
  let session = Enc_db.session db in
  let h = make_orams session (Attrset.singleton col) ~key_len:Compression.single_key_len in
  for row = 0 to session.Session.n - 1 do
    insert_single h db ~row
  done;
  h

let label_of_row h ~row =
  match Oram.Path_oram.read h.il ~key:(Codec.encode_int row) with
  | Some p -> Compression.label_of_payload p
  | None -> invalid_arg "Or_oram_method.label_of_row: record not present"

let insert_combined session h ~gen1 ~gen2 ~row =
  let l1 = label_of_row gen1 ~row in
  let l2 = label_of_row gen2 ~row in
  process_key h ~row (Compression.key_of_labels ~n:session.Session.n l1 l2)

let combine session x h1 h2 =
  let h = make_orams session x ~key_len:Compression.multi_key_len in
  for row = 0 to session.Session.n - 1 do
    insert_combined session h ~gen1:h1 ~gen2:h2 ~row
  done;
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
