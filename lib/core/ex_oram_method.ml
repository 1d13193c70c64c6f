open Relation
module Frame = Servsim.Frame

type handle = {
  attrs : Attrset.t;
  klf : Oram.Path_oram.t; (* key_X -> (label_X, fre_X) *)
  ikl : Oram.Path_oram.t; (* r[ID]  -> (key_X, label_X) *)
  mutable card : int;
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

(* Algorithm 4's KLF update for one row: bump fre_X, allocating a label
   for a fresh key; returns the row's label and the new KLF payload. *)
let count h prev =
  let label, fre =
    match prev with
    | Some p -> klf_decode p
    | None ->
        h.card <- h.card + 1;
        (alloc_label h, 0)
  in
  (label, klf_payload ~label ~fre:(fre + 1))

(* Algorithm 4's inner step, fused: the O^KLF read and O^KLF write are
   one access whose update is [count], and the O^IKL write stores
   (key_X, label_X) under r[ID] — unconditional, as in the paper's
   branch-free formulation. *)
let target h =
  {
    Oram_rows.kl = h.klf;
    il = h.ikl;
    record =
      (fun ~key prev ->
        let label, klf = count h prev in
        (klf, ikl_payload ~key ~label));
  }

let generator h =
  { Oram_rows.ids = h.ikl; label = (fun p -> snd (ikl_decode ~key_len:h.key_len p)) }

let single db ?capacity col =
  let session = Enc_db.session db in
  let capacity = Option.value ~default:session.Session.n capacity in
  let h = create session (Attrset.singleton col) ~capacity in
  Oram_rows.run (Oram_rows.Column (db, col)) (target h) (List.init session.Session.n Fun.id);
  h

let combine session ?capacity ?rows x h1 h2 =
  let capacity = Option.value ~default:session.Session.n capacity in
  let rows = match rows with Some rows -> rows | None -> List.init session.Session.n Fun.id in
  let h = create session x ~capacity in
  Oram_rows.run
    (Oram_rows.Generators { gen1 = generator h1; gen2 = generator h2; base = h.base })
    (target h) rows;
  h

(* {2 Streaming updates over a whole set list}

   Both calls check the list before sending anything: a set listed twice
   would put two accesses to one ORAM in a frame. *)

let distinct name hs =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun h ->
      if Hashtbl.mem seen h.attrs then
        invalid_arg (Format.asprintf "Ex_oram_method.%s: %a listed twice" name Attrset.pp h.attrs);
      Hashtbl.replace seen h.attrs ())
    hs

(* Algorithm 4 for one new row over every set in [hs], staged by |X|:
   frame k puts stage k−1's evictions and gets stage k's KLF and IKL
   paths, and a puts-only frame ends the call.  A singleton's key is its
   value; a combined set's key comes from the labels its two generators
   gave the row one stage earlier, so no generator IKL is read. *)
let insert hs ~row values =
  distinct "insert" hs;
  let labels = Hashtbl.create 16 in
  let label x = Hashtbl.find labels x in
  (* Each set's key, as a thunk to force once its stage is built. *)
  let keyed =
    List.map
      (fun h ->
        match Attrset.elements h.attrs with
        | [ col ] -> (h, fun () -> Compression.key_of_value values.(col))
        | _ ->
            let x1, x2 = Attrset.choose_two_generators h.attrs in
            let listed x = List.exists (fun g -> Attrset.equal g.attrs x) hs in
            if not (listed x1 && listed x2) then
              invalid_arg
                (Format.asprintf "Ex_oram_method.insert: a generator of %a is not listed"
                   Attrset.pp h.attrs);
            (h, fun () -> Compression.key_of_labels ~n:h.base (label x1) (label x2)))
      hs
  in
  let depth = List.fold_left (fun d h -> max d (Attrset.cardinal h.attrs)) 0 hs in
  let id = Codec.encode_int row in
  (* A set's two accesses, the IKL leaf drawn first; once answered
     (the KLF access first), its label is the row's. *)
  let accesses (h, key) =
    let key = key () in
    let label = ref 0 in
    let ikl = Oram.Path_oram.fetch h.ikl ~key:id (fun _ -> Some (ikl_payload ~key ~label:!label)) in
    let klf =
      Oram.Path_oram.fetch h.klf ~key (fun prev ->
          let l, klf = count h prev in
          label := l;
          Some klf)
    in
    Frame.map
      (fun ((_, wk), (_, wi)) ->
        Hashtbl.replace labels h.attrs !label;
        wk @ wi)
      (Frame.both klf ikl)
  in
  Frame.with_batch (fun frames ->
      for k = 1 to depth do
        let stage = List.filter (fun (h, _) -> Attrset.cardinal h.attrs = k) keyed in
        Frame.put frames (List.concat (Frame.read frames (Frame.all (List.map accesses stage))))
      done)

(* Algorithm 5 for row [row] over every set in [hs], as two fused
   accesses per set in three frames: frame 1 gets every IKL path (the
   update removes r[ID] and yields its key), frame 2 puts those
   evictions and gets every KLF path (the key's, or a dummy leaf when
   the row is absent), and frame 3 puts the KLF evictions.  The
   fre = 1 / fre > 1 branch and the row's absence only change what the
   client writes, never which paths it reads or how many. *)
let delete hs ~row =
  distinct "delete" hs;
  let decrement h = function
    | None -> invalid_arg "Ex_oram_method.delete: KLF entry missing (corrupt state)"
    | Some q ->
        let label, fre = klf_decode q in
        if fre > 1 then Some (klf_payload ~label ~fre:(fre - 1))
        else begin
          h.card <- h.card - 1;
          h.free_labels <- label :: h.free_labels;
          None
        end
  in
  (* The KLF access for the IKL payload [old] found: its key's, or a
     dummy one. *)
  let klf_access h = function
    | Some p ->
        Oram.Path_oram.fetch h.klf ~key:(fst (ikl_decode ~key_len:h.key_len p)) (decrement h)
    | None -> Oram.Path_oram.fetch_dummy h.klf
  in
  let ikl_access h =
    Frame.map
      (fun (old, wi) -> (klf_access h old, wi))
      (Oram.Path_oram.fetch h.ikl ~key:(Codec.encode_int row) (fun _ -> None))
  in
  Frame.with_batch (fun frames ->
      let found = Frame.read frames (Frame.all (List.map ikl_access hs)) in
      Frame.put frames (List.concat_map snd found);
      let evicted = Frame.read frames (Frame.all (List.map fst found)) in
      Frame.put frames (List.concat_map snd evicted))

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
