open Relation

let backend ~n = Sort_backend.enclave ~n

let oracle session db = Sort_method.oracle ~backend session db

let discover ?seed ?max_lhs table =
  let n = Table.rows table and m = Table.cols table in
  let session = Session.create ?seed ~n ~m () in
  let db = Enc_db.outsource session table in
  let t0 = Unix.gettimeofday () in
  Protocol.finish session (Fdbase.Lattice.discover ~m ~n ?max_lhs (oracle session db)) ~t0

(* The enclave keeps the (decrypted) column data in secure memory after a
   one-time load, so the timed unit is Algorithm 3 itself — exactly what
   the paper's Fig. 6(b) measures, where the curves for |X| = 1 and
   |X| >= 2 overlap because both run the same network over resident
   data.  Each load is one untimed write batch. *)
let partition_cardinality table x =
  let n = Table.rows table in
  let rec build x =
    let b = Sort_backend.enclave ~n in
    let load key =
      Servsim.Frame.send
        (b.Sort_backend.io.write
           (List.init n (fun row -> (row, { Sort_backend.key = key row; id = row }))))
    in
    (match Attrset.elements x with
    | [] -> invalid_arg "Enclave.partition_cardinality: empty attribute set"
    | [ a ] -> load (fun row -> Sort_backend.V (Table.cell table ~row ~col:a))
    | _ ->
        let x1, x2 = Attrset.choose_two_generators x in
        let l1 = Sort_method.labels (fst (build x1))
        and l2 = Sort_method.labels (fst (build x2)) in
        load (fun row ->
            Sort_backend.L
              (Compression.combined_key_int ~n
                 (l1.(row)
                 [@lint.declassify
                   "trusted-client label combine; the write-back schedule is fixed and the \
                    result reveals only FD(DB)"])
                 (l2.(row)
                 [@lint.declassify
                   "trusted-client label combine; the write-back schedule is fixed and the \
                    result reveals only FD(DB)"]))));
    let t0 = Unix.gettimeofday () in
    let h = Sort_method.compute b x in
    (h, Unix.gettimeofday () -. t0)
  in
  let h, dt = build x in
  (Sort_method.cardinality h, dt)
