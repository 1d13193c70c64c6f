open Relation
open Sort_backend
module Frame = Servsim.Frame

type network =
  | Bitonic
  | Odd_even_merge

type handle = {
  attrs : Attrset.t;
  backend : Sort_backend.t;
  card : int;
}

let attrs h = h.attrs
let cardinality h = h.card

let network_for kind n =
  match kind with
  | Bitonic -> Osort.Network.bitonic n
  | Odd_even_merge -> Osort.Network.odd_even_merge n

(* [f lo hi] for consecutive slot ranges [lo, hi) that cover [0, len),
   [width] slots each (the last may be shorter). *)
let iter_chunks ~width len f =
  let lo = ref 0 in
  while !lo < len do
    let hi = min len (!lo + width) in
    f !lo hi;
    lo := hi
  done

(* A slice of a network stage, W comparators at a time.  A chunk's
   comparators touch disjoint slots, so all of their slots are fetched in
   one read batch and all rewritten in one write batch — both slots of
   every comparator, swapped or not, so the server cannot tell which.
   The write-back goes in comparator order (i1, j1, i2, j2, ...), so the
   cipher's IV stream follows the network schedule whatever the chunk
   width.  The write batch is encrypted here and put in [frames]: a
   write-behind batch sends it in the frame of the next read. *)
let exchange ~compare (io : io) frames slice =
  iter_chunks ~width:chunk_width (Array.length slice) (fun start stop ->
      let chunk = List.init (stop - start) (fun k -> slice.(start + k)) in
      let slots = List.concat_map (fun { Osort.Network.i; j; _ } -> [ i; j ]) chunk in
      let elts = Array.of_list (Frame.read frames (io.fetch slots)) in
      Frame.put frames
        (io.write
           (List.concat
              (List.mapi
                 (fun k { Osort.Network.i; j; up } ->
                   let a = elts.(2 * k) and b = elts.((2 * k) + 1) in
                   let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
                   if up then [ (i, lo); (j, hi) ] else [ (i, hi); (j, lo) ])
                 chunk))))

(* A parallel worker holds a batch of its own for each slice of a
   stage and sends its last write before the stage barrier.  The
   call's held batch is sent before any worker starts. *)
let oblivious_sort ?(domains = 1) net backend frames ~compare =
  if domains <= 1 then Osort.Driver.run net ~exchange:(exchange ~compare backend.io frames)
  else begin
    Frame.flush frames;
    Osort.Driver.run_parallel net ~domains ~make_exchange:(fun w ->
        let io = backend.worker w in
        fun slice -> Frame.with_batch (fun frames -> exchange ~compare io frames slice))
  end

let range lo hi = List.init (hi - lo) (fun k -> lo + k)

(* The working buffers of one Sort call, in the client's cost ledger:
   one per domain, declared in the calling domain before any worker
   starts. *)
let with_buffers ?(domains = 1) backend f =
  backend.charge_buffers (max 1 domains);
  Fun.protect ~finally:(fun () -> backend.charge_buffers 0) f

(* Algorithm 3, its writes held in [frames]. *)
let sort_and_label ?(network = Bitonic) ?domains backend frames x =
  let net = network_for network backend.length in
  (* 1. Sort by key_X: equal keys become consecutive. *)
  oblivious_sort ?domains net backend frames ~compare:compare_by_key;
  (* 2. Linear pass: replace key_X by its run index (the label), B slots
     per read batch and per write batch — O(1) client memory, per
     §IV-D(c).  The previous key carries across chunk boundaries. *)
  let tmp = ref Pad in
  let card = ref 0 in
  let relabel i e =
    let flag = i > 0 && compare_skey e.key !tmp <> 0 in
    tmp := e.key;
    if
      (flag
      [@lint.declassify
        "post-sort labeling scan: the read/write schedule is fixed; the branch only \
         selects the label value, i.e. the FD(DB) cardinality structure"])
    then incr card;
    (i, { key = L !card; id = e.id })
  in
  iter_chunks ~width:buffer_slots backend.n (fun lo hi ->
      let elts = Array.of_list (Frame.read frames (backend.io.fetch (range lo hi))) in
      Frame.put frames
        (backend.io.write (List.init (hi - lo) (fun k -> relabel (lo + k) elts.(k)))));
  (* 3. Sort back by r[ID]. *)
  oblivious_sort ?domains net backend frames ~compare:compare_by_id;
  { attrs = x; backend; card = !card + 1 }

let compute ?network ?domains backend x =
  Frame.with_batch (fun frames -> sort_and_label ?network ?domains backend frames x)

(* Fill the fresh array [b], [width] slots per write batch: rows
   [lo, hi) of a chunk come from the read [rows lo hi] (one frame, which
   also carries the previous chunk's writes), the slots past row n are
   pads.  A chunk of pads only makes no read, so the batch before it
   goes in a puts-only frame of its own. *)
let load ~width b frames rows =
  iter_chunks ~width b.length (fun lo hi ->
      let real = max lo (min hi b.n) in
      let elts =
        (if lo < real then Frame.read frames (rows lo real) else [])
        @ List.init (hi - real) (fun _ -> pad_elt)
      in
      Frame.put frames (b.io.write (List.mapi (fun k e -> (lo + k, e)) elts)))

let single ?network ?domains ?backend db col =
  let session = Enc_db.session db in
  let n = session.Session.n in
  let make = Option.value ~default:(fun ~n -> Sort_backend.encrypted session ~n) backend in
  let b = make ~n in
  with_buffers ?domains b (fun () ->
      Frame.with_batch (fun frames ->
          load ~width:buffer_slots b frames (fun lo hi ->
              Frame.map
                (List.mapi (fun k v -> { key = V v; id = lo + k }))
                (Enc_db.cells db ~col (range lo hi)));
          sort_and_label ?network ?domains b frames (Attrset.singleton col)))

let label_of_elt fname e =
  match
    (e.key
    [@lint.declassify
      "client-side decode of the label array; the tag check is fail-stop validation \
       and by construction always takes the L branch"])
  with
  | L l -> l
  | V _ | Pad -> invalid_arg (fname ^ ": array does not hold labels")

let label_of_row h ~row =
  label_of_elt "Sort_method.label_of_row" (List.hd (Frame.get (h.backend.io.fetch [ row ])))

(* Labels of rows [lo, hi), one read batch. *)
let label_range h lo hi =
  Frame.map
    (fun elts -> Array.of_list (List.map (label_of_elt "Sort_method.labels") elts))
    (h.backend.io.fetch (range lo hi))

let labels h =
  let out = Array.make h.backend.n 0 in
  iter_chunks ~width:buffer_slots h.backend.n (fun lo hi ->
      Array.blit (Frame.get (label_range h lo hi)) 0 out lo (hi - lo));
  out

let combine ?network ?domains ?backend session x h1 h2 =
  let n = session.Session.n in
  let make = Option.value ~default:(fun ~n -> Sort_backend.encrypted session ~n) backend in
  let b = make ~n in
  with_buffers ?domains b (fun () ->
      Frame.with_batch (fun frames ->
          (* W rows at a time: one frame reads both generators' labels
             (2W = B decrypted elements), and the pairs' write batch
             rides in the next frame. *)
          load ~width:chunk_width b frames (fun lo hi ->
              Frame.map
                (fun (l1s, l2s) ->
                  List.init (hi - lo) (fun k ->
                      {
                        key =
                          L
                            (Compression.combined_key_int ~n
                               (l1s.(k)
                               [@lint.declassify
                                 "trusted-client label combine; the write-back schedule is \
                                  fixed and the result reveals only FD(DB)"])
                               (l2s.(k)
                               [@lint.declassify
                                 "trusted-client label combine; the write-back schedule is \
                                  fixed and the result reveals only FD(DB)"]));
                        id = lo + k;
                      }))
                (Frame.both (label_range h1 lo hi) (label_range h2 lo hi)));
          sort_and_label ?network ?domains b frames x))

let release h = h.backend.destroy ()

let oracle ?network ?domains ?backend session db =
  {
    Fdbase.Lattice.single =
      (fun col ->
        let h = single ?network ?domains ?backend db col in
        (h, h.card));
    combine =
      (fun x h1 h2 ->
        let h = combine ?network ?domains ?backend session x h1 h2 in
        (h, h.card));
    release;
  }
