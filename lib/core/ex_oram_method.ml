open Relation

type handle = {
  attrs : Attrset.t;
  klf : Oram.Path_oram.t; (* key_X -> (label_X, fre_X) *)
  ikl : Oram.Path_oram.t; (* r[ID]  -> (key_X, label_X) *)
  mutable card : int;
  mutable live : int;
  (* Label allocator: labels of fully-deleted keys return to [free_labels]
     and are reused before [next_label] grows, so every label stays below
     the peak number of concurrently-live distinct keys — and therefore
     below [base], which {!Compression.key_of_labels} requires.  Using
     [card] as the next label (as the static formulation can) is wrong
     under churn: a delete that retires a key decrements [card], and the
     next fresh key would collide with a live key's label. *)
  mutable next_label : int;
  mutable free_labels : int list;
  key_len : int;
  base : int; (* public multiplier for combined keys: the ORAM capacity *)
  session : Session.t;
}

let attrs h = h.attrs
let cardinality h = h.card
let live_records h = h.live

(* Payload codecs. *)
let klf_payload ~label ~fre = Codec.encode_int label ^ Codec.encode_int fre

let klf_decode p = (Codec.decode_int (String.sub p 0 8), Codec.decode_int (String.sub p 8 8))

let ikl_payload ~key ~label = key ^ Codec.encode_int label

let ikl_decode ~key_len p =
  (String.sub p 0 key_len, Codec.decode_int (String.sub p key_len 8))

let create session x ~capacity =
  let key_len =
    if Attrset.cardinal x <= 1 then Compression.single_key_len else Compression.multi_key_len
  in
  let klf =
    Oram.Path_oram.setup
      ~name:(Session.fresh_name session "ex-klf")
      { capacity; key_len; payload_len = 16 }
      session.Session.server session.Session.cipher (Session.rand_int session)
  in
  let ikl =
    Oram.Path_oram.setup
      ~name:(Session.fresh_name session "ex-ikl")
      { capacity; key_len = 8; payload_len = key_len + 8 }
      session.Session.server session.Session.cipher (Session.rand_int session)
  in
  {
    attrs = x;
    klf;
    ikl;
    card = 0;
    live = 0;
    next_label = 0;
    free_labels = [];
    key_len;
    base = capacity;
    session;
  }

let alloc_label h =
  match h.free_labels with
  | l :: tl ->
      h.free_labels <- tl;
      l
  | [] ->
      let l = h.next_label in
      h.next_label <- l + 1;
      l

(* Algorithm 4's inner step, fused: the O^KLF read and O^KLF write are
   one access whose update bumps fre_X (allocating a label for a fresh
   key), and the O^IKL write stores (key_X, label_X) under r[ID] —
   unconditional, as in the paper's branch-free formulation. *)
let target h =
  {
    Oram_rows.kl = h.klf;
    il = h.ikl;
    record =
      (fun ~key prev ->
        let label, fre =
          match prev with
          | Some p -> klf_decode p
          | None ->
              h.card <- h.card + 1;
              (alloc_label h, 0)
        in
        h.live <- h.live + 1;
        (klf_payload ~label ~fre:(fre + 1), ikl_payload ~key ~label));
  }

let insert_value h ~row v =
  if Attrset.cardinal h.attrs <> 1 then
    invalid_arg "Ex_oram_method.insert_value: handle is not single-attribute";
  Oram_rows.run (Oram_rows.Given (fun _ -> v)) (target h) [ row ]

let label_of_row h ~row =
  match Oram.Path_oram.read h.ikl ~key:(Codec.encode_int row) with
  | Some p -> Some (snd (ikl_decode ~key_len:h.key_len p))
  | None -> None

let generator h =
  { Oram_rows.ids = h.ikl; label = (fun p -> snd (ikl_decode ~key_len:h.key_len p)) }

let insert_combined h ~gen1 ~gen2 rows =
  Oram_rows.run
    (Oram_rows.Generators { gen1 = generator gen1; gen2 = generator gen2; base = h.base })
    (target h) rows

let all_rows session = List.init session.Session.n Fun.id

let single db ?capacity col =
  let session = Enc_db.session db in
  let capacity = Option.value ~default:session.Session.n capacity in
  let h = create session (Attrset.singleton col) ~capacity in
  Oram_rows.run (Oram_rows.Column (db, col)) (target h) (all_rows session);
  h

let combine session ?capacity x h1 h2 =
  let capacity = Option.value ~default:session.Session.n capacity in
  let h = create session x ~capacity in
  insert_combined h ~gen1:h1 ~gen2:h2 (all_rows session);
  h

(* Algorithm 5: two reads then two writes; the fre = 1 / fre > 1 branch
   only changes the plaintext written, never the access pattern. *)
let delete h ~row =
  let id_key = Codec.encode_int row in
  match Oram.Path_oram.read h.ikl ~key:id_key with
  | None ->
      (* Record absent: keep the physical pattern identical anyway. *)
      Oram.Path_oram.dummy_access h.klf;
      Oram.Path_oram.dummy_access h.klf;
      Oram.Path_oram.dummy_access h.ikl
  | Some p ->
      let key, _label = ikl_decode ~key_len:h.key_len p in
      let label, fre =
        match Oram.Path_oram.read h.klf ~key with
        | Some q -> klf_decode q
        | None -> invalid_arg "Ex_oram_method.delete: KLF entry missing (corrupt state)"
      in
      ignore
        (Oram.Path_oram.access h.klf ~key (fun prev ->
             match prev with
             | None -> None
             | Some q ->
                 let label, fre = klf_decode q in
                 if fre > 1 then Some (klf_payload ~label ~fre:(fre - 1)) else None));
      ignore (Oram.Path_oram.access h.ikl ~key:id_key (fun _ -> None));
      if fre = 1 then begin
        h.card <- h.card - 1;
        h.free_labels <- label :: h.free_labels
      end;
      h.live <- h.live - 1

let release h =
  Oram.Path_oram.destroy h.klf;
  Oram.Path_oram.destroy h.ikl

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
