open Relation
open Sort_backend

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

(* One compare-exchange; both slots are always rewritten so the server
   cannot tell whether a swap happened.  The two fetches are one batch
   and the two write-backs another, so an exchange is two round trips on
   the wire (the ledger is maintained by the block store). *)
let exchange ~compare (io : io) ~up i j =
  match io.read [ i; j ] with
  | [ a; b ] ->
      let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
      io.write (if up then [ (i, lo); (j, hi) ] else [ (i, hi); (j, lo) ])
  | _ -> assert false

let oblivious_sort ?(domains = 1) net backend ~compare =
  if domains <= 1 then Osort.Driver.run net ~exchange:(exchange ~compare backend.io)
  else
    Osort.Driver.run_parallel net ~domains ~make_exchange:(fun w ->
        exchange ~compare (backend.worker w))

let read_one (io : io) i = List.hd (io.read [ i ])

(* Algorithm 3. *)
let compute ?(network = Bitonic) ?domains backend x =
  let net = network_for network backend.length in
  (* 1. Sort by key_X: equal keys become consecutive. *)
  oblivious_sort ?domains net backend ~compare:compare_by_key;
  (* 2. Linear pass: replace key_X by its run index (the label).  Kept
     element-at-a-time — O(1) client memory, per §IV-D(c); each element is
     one fetch batch and one write-back batch. *)
  let tmp = ref Pad in
  let card = ref 0 in
  for i = 0 to backend.n - 1 do
    let e = read_one backend.io i in
    let flag = i > 0 && compare_skey e.key !tmp <> 0 in
    tmp := e.key;
    if
      (flag
      [@lint.declassify
        "post-sort labeling scan: the read/write schedule is fixed; the branch only \
         selects the label value, i.e. the FD(DB) cardinality structure"])
    then incr card;
    backend.io.write [ (i, { key = L !card; id = e.id }) ]
  done;
  (* 3. Sort back by r[ID]. *)
  oblivious_sort ?domains net backend ~compare:compare_by_id;
  { attrs = x; backend; card = !card + 1 }

let fill_pads backend ~from =
  List.init (backend.length - from) (fun k -> (from + k, pad_elt))

let single ?network ?domains ?backend db col =
  let session = Enc_db.session db in
  let n = session.Session.n in
  let make = Option.value ~default:(fun ~n -> Sort_backend.encrypted session ~n) backend in
  let b = make ~n in
  (* One frame for the whole initial load (real rows + pads). *)
  b.io.write
    (List.init n (fun row -> (row, { key = V (Enc_db.read_cell db ~row ~col); id = row }))
    @ fill_pads b ~from:n);
  compute ?network ?domains b (Attrset.singleton col)

let label_of_row h ~row =
  match
    ((read_one h.backend.io row).key
    [@lint.declassify
      "client-side decode of the label array; the tag check is fail-stop validation \
       and by construction always takes the L branch"])
  with
  | L l -> l
  | V _ | Pad -> invalid_arg "Sort_method.label_of_row: array does not hold labels"

let labels h =
  (* Whole label array in one Multi_get frame. *)
  h.backend.io.read (List.init h.backend.n Fun.id)
  |> List.map (fun e ->
         match
           (e.key
           [@lint.declassify
             "client-side decode of the label array; the tag check is fail-stop \
              validation and by construction always takes the L branch"])
         with
         | L l -> l
         | V _ | Pad -> invalid_arg "Sort_method.labels: array does not hold labels")
  |> Array.of_list

let combine ?network ?domains ?backend session x h1 h2 =
  let n = session.Session.n in
  let make = Option.value ~default:(fun ~n -> Sort_backend.encrypted session ~n) backend in
  let b = make ~n in
  (* Two fetch frames (one per generator) and one write-back frame,
     instead of 3n single-block exchanges. *)
  let l1s = labels h1 and l2s = labels h2 in
  b.io.write
    (List.init n (fun row ->
         ( row,
           {
             key =
               L
                 (Compression.combined_key_int ~n
                    (l1s.(row)
                    [@lint.declassify
                      "trusted-client label combine; the write-back schedule is fixed \
                       and the result reveals only FD(DB)"])
                    (l2s.(row)
                    [@lint.declassify
                      "trusted-client label combine; the write-back schedule is fixed \
                       and the result reveals only FD(DB)"]));
             id = row;
           } ))
    @ fill_pads b ~from:n);
  compute ?network ?domains b x

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
