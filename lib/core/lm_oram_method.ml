open Relation

type handle = {
  attrs : Attrset.t;
  kl : Oram.Omap.t; (* key_X -> label_X, value-keyed *)
  il : Oram.Recursive_path_oram.t; (* r[ID] -> label_X *)
  mutable card : int;
  key_len : int;
  session : Session.t;
}

let attrs h = h.attrs
let cardinality h = h.card

let make session x ~key_len =
  let n = session.Session.n in
  let cfg = { Oram.Omap.capacity = n; key_len; value_len = 8 } in
  let backing =
    Oram.Omap.recursive_backing
      ~name:(Session.fresh_name session "lm-kl")
      ~capacity:n ~node_len:(Oram.Omap.node_len cfg)
      session.Session.server
      session.Session.cipher (Session.rand_int session)
  in
  let kl = Oram.Omap.create cfg backing in
  let il =
    Oram.Recursive_path_oram.setup
      ~name:(Session.fresh_name session "lm-il")
      { capacity = n; payload_len = 8; fanout = 16; top_cutoff = 16 }
      session.Session.server session.Session.cipher (Session.rand_int session)
  in
  { attrs = x; kl; il; card = 0; key_len; session }

(* Algorithm 1's inner step with the low-memory structures: one Omap find,
   one recursive-ORAM write, one Omap insert — all fixed-cost. *)
let process_key h ~row key =
  let prev = Oram.Omap.find h.kl key in
  let fresh = prev = None in
  let label = match prev with Some p -> Codec.decode_int p | None -> h.card in
  Oram.Recursive_path_oram.write h.il ~key:row (Codec.encode_int label);
  Oram.Omap.insert h.kl key (Codec.encode_int label);
  if fresh then h.card <- h.card + 1

let single db col =
  let session = Enc_db.session db in
  let h = make session (Attrset.singleton col) ~key_len:Compression.single_key_len in
  for row = 0 to session.Session.n - 1 do
    let v = Enc_db.read_cell db ~row ~col in
    process_key h ~row
      (Compression.key_of_value
         (v
         [@lint.declassify
           "trusted-client FD state; the server sees only the oblivious LM-ORAM \
            accesses and the result reveals only FD(DB)"]))
  done;
  h

let label_of_row h ~row =
  match Oram.Recursive_path_oram.read h.il ~key:row with
  | Some p -> Codec.decode_int p
  | None -> invalid_arg "Lm_oram_method.label_of_row: record not present"

let combine session x h1 h2 =
  let h = make session x ~key_len:Compression.multi_key_len in
  for row = 0 to session.Session.n - 1 do
    let l1 = label_of_row h1 ~row and l2 = label_of_row h2 ~row in
    process_key h ~row (Compression.key_of_labels ~n:session.Session.n l1 l2)
  done;
  h

let client_state_bytes h =
  Oram.Omap.client_state_bytes h.kl + Oram.Recursive_path_oram.client_state_bytes h.il

let release h =
  Oram.Omap.destroy h.kl;
  Oram.Recursive_path_oram.destroy h.il

let oracle session db =
  {
    Fdbase.Lattice.single =
      (fun col ->
        let h = single db col in
        (h, h.card));
    combine =
      (fun x h1 h2 ->
        let h = combine session x h1 h2 in
        (h, h.card));
    release;
  }
