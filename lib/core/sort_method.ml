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

(* Position of [slot] in a component's ascending [slots]. *)
let index_of slots slot =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    if slots.(mid) < slot then go (mid + 1) hi else if slots.(mid) > slot then go lo mid else mid
  in
  go 0 (Array.length slots)

(* A slice of a pass, whole components packed in order into frames of at
   most B slots.  A frame's slots are fetched in one read batch and all
   rewritten in one write batch, swapped or not, so the server cannot
   tell which, in the order they were read (each component's slots
   ascending).  In between, each component's comparators run in stage
   order on the decrypted buffer.  The write batch is encrypted here
   and put in [frames]: a write-behind batch sends it in the frame of
   the next read. *)
let exchange ~compare (io : io) frames components =
  let run group =
    let slots = List.concat_map (fun c -> Array.to_list c.Osort.Network.slots) group in
    let buf = Array.of_list (Frame.read frames (io.fetch slots)) in
    ignore
      (List.fold_left
         (fun base { Osort.Network.slots; comparators } ->
           Array.iter
             (fun { Osort.Network.i; j; up } ->
               let pi = base + index_of slots i and pj = base + index_of slots j in
               let a = buf.(pi) and b = buf.(pj) in
               let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
               buf.(pi) <- (if up then lo else hi);
               buf.(pj) <- (if up then hi else lo))
             comparators;
           base + Array.length slots)
         0 group);
    Frame.put frames (io.write (List.mapi (fun k slot -> (slot, buf.(k))) slots))
  in
  let group, _ =
    Array.fold_left
      (fun (group, size) c ->
        let k = Array.length c.Osort.Network.slots in
        if k > buffer_slots then invalid_arg "Sort_method.exchange: component exceeds B slots";
        if size + k > buffer_slots then begin
          run (List.rev group);
          ([ c ], k)
        end
        else (c :: group, size + k))
      ([], 0) components
  in
  if group <> [] then run (List.rev group)

(* A parallel worker holds a batch of its own for each slice of a pass
   and sends its last write before the pass barrier.  The call's held
   batch is sent before any worker starts. *)
let oblivious_sort ?(domains = 1) passes backend frames ~compare =
  if domains <= 1 then Osort.Driver.run passes ~exchange:(exchange ~compare backend.io frames)
  else begin
    Frame.flush frames;
    Osort.Driver.run_parallel passes ~domains ~make_exchange:(fun w ->
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
  let passes = Osort.Network.passes (network_for network backend.length) ~block:buffer_slots in
  (* 1. Sort by key_X: equal keys become consecutive. *)
  oblivious_sort ?domains passes backend frames ~compare:compare_by_key;
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
  oblivious_sort ?domains passes backend frames ~compare:compare_by_id;
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
