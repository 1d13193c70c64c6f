(* Operational checks of Definition 2 (oblivious algorithm): for any two
   databases of the same size, the server's view must be distributed
   identically.  For Sort the whole physical trace (addresses included)
   is a deterministic function of (n, m, plan), so traces must be
   bit-identical; for the ORAM methods the trace *shape* (sequence of
   stores, op kinds and ciphertext lengths) must be identical while path
   choices are random. *)

open Relation
open Core

(* Two databases, same size, very different contents and FDs... but NOTE:
   the lattice plan is allowed to depend on the discovered FDs (part of
   the leakage), so trace comparisons across databases must use tables
   with identical FD sets, or fixed attribute-set computations. *)

let table_a n = Datasets.Rnd.generate_with_domain ~seed:1 ~rows:n ~cols:3 ~domain:4 ()
let table_b n = Datasets.Rnd.generate_with_domain ~seed:2 ~rows:n ~cols:3 ~domain:900000 ()

let table_strings n =
  let schema = Schema.make [| "A"; "B"; "C" |] in
  let rng = Crypto.Rng.create 3 in
  Table.make schema
    (Array.init n (fun _ ->
         Array.init 3 (fun _ ->
             Value.Str (String.init 6 (fun _ -> Char.chr (97 + Crypto.Rng.int rng 26))))))

let partition_trace method_ table x =
  let _, r = Protocol.partition_cardinality ~seed:424242 method_ table x in
  r

(* --- Sort: full trace equality (strongest property). --- *)

let test_sort_full_trace_identical_datasets () =
  let x = Attrset.of_list [ 0; 1 ] in
  let r1 = partition_trace Protocol.Sort (table_a 32) x in
  let r2 = partition_trace Protocol.Sort (table_b 32) x in
  let r3 = partition_trace Protocol.Sort (table_strings 32) x in
  Alcotest.(check int64) "a = b" r1.Protocol.trace_full r2.Protocol.trace_full;
  Alcotest.(check int64) "a = strings" r1.Protocol.trace_full r3.Protocol.trace_full

let test_sort_full_trace_single_attr () =
  let x = Attrset.singleton 2 in
  let r1 = partition_trace Protocol.Sort (table_a 48) x in
  let r2 = partition_trace Protocol.Sort (table_b 48) x in
  Alcotest.(check int64) "identical" r1.Protocol.trace_full r2.Protocol.trace_full

let test_sort_trace_differs_across_sizes () =
  let x = Attrset.singleton 0 in
  let r1 = partition_trace Protocol.Sort (table_a 32) x in
  let r2 = partition_trace Protocol.Sort (table_a 64) x in
  Alcotest.(check bool) "sizes distinguishable (allowed leakage)" false
    (Int64.equal r1.Protocol.trace_full r2.Protocol.trace_full)

(* --- ORAM methods: shape equality; addresses (leaves) may differ. --- *)

let test_oram_shape_identical_datasets () =
  List.iter
    (fun m ->
      let x = Attrset.of_list [ 0; 1 ] in
      let r1 = partition_trace m (table_a 32) x in
      let r2 = partition_trace m (table_b 32) x in
      let r3 = partition_trace m (table_strings 32) x in
      Alcotest.(check int64)
        (Protocol.method_name m ^ " a=b")
        r1.Protocol.trace_shape r2.Protocol.trace_shape;
      Alcotest.(check int64)
        (Protocol.method_name m ^ " a=strings")
        r1.Protocol.trace_shape r3.Protocol.trace_shape;
      Alcotest.(check int)
        (Protocol.method_name m ^ " same access count")
        r1.Protocol.trace_count r2.Protocol.trace_count)
    [ Protocol.Or_oram; Protocol.Ex_oram ]

let test_oram_shape_single_attr () =
  List.iter
    (fun m ->
      let x = Attrset.singleton 1 in
      let r1 = partition_trace m (table_a 24) x in
      let r2 = partition_trace m (table_strings 24) x in
      Alcotest.(check int64) (Protocol.method_name m) r1.Protocol.trace_shape
        r2.Protocol.trace_shape)
    [ Protocol.Or_oram; Protocol.Ex_oram ]

(* --- Full protocol: for equal-size DBs with equal FD sets, the entire
   execution must look the same (Sort: identical; ORAM: same shape). --- *)

let rename_values table =
  (* A bijective per-column renaming preserves all partitions, hence all
     FDs, while changing every plaintext. *)
  let m = Table.cols table in
  let maps = Array.init m (fun _ -> Hashtbl.create 16) in
  let fresh = Array.make m 1000 in
  let data =
    Array.init (Table.rows table) (fun r ->
        Array.init m (fun c ->
            let v = Table.cell table ~row:r ~col:c in
            let tbl = maps.(c) in
            match Hashtbl.find_opt tbl v with
            | Some v' -> v'
            | None ->
                let v' = Value.Int fresh.(c) in
                fresh.(c) <- fresh.(c) + 7;
                Hashtbl.replace tbl v v';
                v'))
  in
  Table.make (Table.schema table) data

let test_protocol_sort_identical_for_equal_leakage () =
  let t1 = Datasets.Rnd.generate_with_domain ~seed:21 ~rows:24 ~cols:3 ~domain:3 () in
  let t2 = rename_values t1 in
  let r1 = Protocol.discover ~seed:777 Protocol.Sort t1 in
  let r2 = Protocol.discover ~seed:777 Protocol.Sort t2 in
  Alcotest.(check string) "same FDs (leakage equal)"
    (String.concat ";" (List.map (Format.asprintf "%a" Fdbase.Fd.pp) r1.Protocol.fds))
    (String.concat ";" (List.map (Format.asprintf "%a" Fdbase.Fd.pp) r2.Protocol.fds));
  Alcotest.(check int64) "identical full trace" r1.Protocol.trace_full r2.Protocol.trace_full

let test_protocol_oram_same_shape_for_equal_leakage () =
  let t1 = Datasets.Rnd.generate_with_domain ~seed:22 ~rows:20 ~cols:3 ~domain:3 () in
  let t2 = rename_values t1 in
  List.iter
    (fun m ->
      let r1 = Protocol.discover ~seed:778 m t1 in
      let r2 = Protocol.discover ~seed:778 m t2 in
      Alcotest.(check int64) (Protocol.method_name m ^ " shape") r1.Protocol.trace_shape
        r2.Protocol.trace_shape;
      Alcotest.(check int) (Protocol.method_name m ^ " count") r1.Protocol.trace_count
        r2.Protocol.trace_count)
    [ Protocol.Or_oram; Protocol.Ex_oram ]

let test_oram_leaves_vary_across_seeds () =
  (* Sanity: the ORAM trace is NOT degenerate — different client
     randomness produces different physical addresses. *)
  let x = Attrset.singleton 0 in
  let t = table_a 24 in
  let _, r1 = Protocol.partition_cardinality ~seed:1 Protocol.Or_oram t x in
  let _, r2 = Protocol.partition_cardinality ~seed:2 Protocol.Or_oram t x in
  Alcotest.(check int64) "same shape" r1.Protocol.trace_shape r2.Protocol.trace_shape;
  Alcotest.(check bool) "different addresses" false
    (Int64.equal r1.Protocol.trace_full r2.Protocol.trace_full)

let test_ex_oram_insert_delete_shape () =
  (* Updates on different values must look identical (same shape and
     count) — the dynamic method's obliviousness. *)
  let run values =
    let n = List.length values in
    let schema = Schema.make [| "A" |] in
    let t = Table.make schema (Array.of_list (List.map (fun v -> [| Value.Int v |]) values)) in
    let d = Dynamic.start ~seed:31 ~capacity:64 t in
    let id = Dynamic.insert d [| Value.Int (List.nth values 0) |] in
    Dynamic.delete d ~id;
    Dynamic.delete d ~id:0;
    ignore n;
    let trace = Session.trace (Dynamic.session d) in
    (Servsim.Trace.shape_digest trace, Servsim.Trace.count trace)
  in
  let s1, c1 = run [ 5; 5; 7; 9 ] in
  let s2, c2 = run [ 1; 2; 3; 4 ] in
  Alcotest.(check int64) "same shape" s1 s2;
  Alcotest.(check int) "same count" c1 c2

(* --- Per-store projection: the row schedule packs accesses to many
   trees into one frame, but each ORAM store, on its own, must still see
   a dummy-filled tree of 2^(L+1)-1 bucket blocks, then accesses that
   each read one whole root-to-leaf path, the root and then one child
   per level, and write the same buckets back before the next access
   begins.  Every block a store ever holds is one cell of one length:
   Z slots of [flag | key | payload] under one encryption. --- *)

let z = 4

let oram_kinds = [ "or-kl-"; "or-il-"; "ex-klf-"; "ex-ikl-" ]
let is_oram name = List.exists (fun p -> String.starts_with ~prefix:p name) oram_kinds

(* The bucket cell lengths a store of each kind may use: its key is a
   single attribute's value or a combined set's label. *)
let bucket_lens name =
  let cell body = Crypto.Cell_cipher.ciphertext_len ~plaintext_len:(z * (1 + body)) in
  let by_key body = List.map (fun k -> cell (body k)) Compression.[ single_key_len; multi_key_len ] in
  if String.starts_with ~prefix:"or-kl-" name then by_key (fun k -> k + 8)
  else if String.starts_with ~prefix:"or-il-" name then [ cell 16 ]
  else if String.starts_with ~prefix:"ex-klf-" name then by_key (fun k -> k + 16)
  else by_key (fun k -> 8 + k + 8)

(* The buckets of a root-to-leaf path, root first: bucket 0, then a
   child of the bucket before at each level. *)
let is_path = function
  | 0 :: rest ->
      let rec go parent = function
        | [] -> true
        | b :: rest -> (b = (2 * parent) + 1 || b = (2 * parent) + 2) && go b rest
      in
      go 0 rest
  | _ -> false

(* The events of [events] on each ORAM store, in order; asserts the
   closed form on each and returns the total number of accesses.
   [created] says whether a store's dummy upload is part of [events]. *)
let project ~created events =
  let by_store = Hashtbl.create 16 in
  List.iter
    (fun (e : Servsim.Trace.event) ->
      if is_oram e.store then
        Hashtbl.replace by_store e.store
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_store e.store)))
    events;
  Hashtbl.fold
    (fun store evs total ->
      let evs = List.rev evs in
      (match List.sort_uniq compare (List.map (fun (e : Servsim.Trace.event) -> e.len) evs) with
      | [ len ] when List.mem len (bucket_lens store) -> ()
      | lens ->
          Alcotest.failf "%s: block lengths [%s], expected one bucket cell length" store
            (String.concat "; " (List.map string_of_int lens)));
      let rec split_run op acc = function
        | (e : Servsim.Trace.event) :: rest when e.op = op -> split_run op (e.addr :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let depth, evs =
        if created store then begin
          let setup, rest = split_run Servsim.Trace.Write [] evs in
          let buckets = List.length setup in
          Alcotest.(check bool) (store ^ ": dummy upload fills the tree") true
            (buckets > 0 && setup = List.init buckets Fun.id && (buckets + 1) land buckets = 0);
          (* 2^(L+1) - 1 buckets: a path is L+1 of them. *)
          let rec log2 k = if k <= 1 then 0 else 1 + log2 (k / 2) in
          (Some (log2 (buckets + 1)), rest)
        end
        else (None, evs)
      in
      let rec accesses depth n = function
        | [] -> n
        | evs ->
            let reads, rest = split_run Servsim.Trace.Read [] evs in
            let writes, rest = split_run Servsim.Trace.Write [] rest in
            if not (is_path reads) then Alcotest.failf "%s: access %d does not read one path" store n;
            let len = List.length reads in
            (match depth with
            | Some d when d <> len ->
                Alcotest.failf "%s: access %d reads %d buckets, the tree has %d levels" store n
                  len d
            | _ -> ());
            if List.sort compare writes <> List.sort compare reads then
              Alcotest.failf "%s: access %d does not write back the path it read" store n;
            accesses (Some len) (n + 1) rest
      in
      total + accesses depth 0 evs)
    by_store 0

let traced_db table =
  let n = Table.rows table and m = Table.cols table in
  let session = Session.create ~seed:55 ~keep_events:true ~n ~m () in
  (session, Enc_db.outsource session table)

let events session = Servsim.Trace.events (Session.trace session)

(* The ORAM accesses of [f ()], from the events it adds: the trees it
   creates start with their dummy upload. *)
let call_accesses session f =
  let before = events session in
  let seen = Hashtbl.create 16 in
  List.iter (fun (e : Servsim.Trace.event) -> Hashtbl.replace seen e.store ()) before;
  let h = f () in
  let added = List.filteri (fun i _ -> i >= List.length before) (events session) in
  (h, project ~created:(fun store -> not (Hashtbl.mem seen store)) added)

let test_per_store_projection () =
  let n = 24 in
  let table = Datasets.Rnd.generate_with_domain ~seed:9 ~rows:n ~cols:3 ~domain:3 () in
  let x = Attrset.of_list [ 0; 1 ] in
  let discover oracle =
    let session, db = traced_db table in
    let (), accesses =
      call_accesses session (fun () ->
          ignore
            (Fdbase.Lattice.discover ~m:3 ~n ~check:(Set_level.check session)
               (oracle session db)))
    in
    Alcotest.(check bool) "discovery made accesses" true (accesses > 0)
  in
  discover Or_oram_method.oracle;
  discover Ex_oram_method.oracle;
  (* Accesses per row: the key and ID ORAMs for a single attribute, plus
     one read of each generator's ID ORAM for a combined set. *)
  let per_row name single combine =
    let session, db = traced_db table in
    let h0, a = call_accesses session (fun () -> single db 0) in
    Alcotest.(check int) (name ^ " single: 2 accesses per row") (2 * n) a;
    let h1, _ = call_accesses session (fun () -> single db 1) in
    let _, a = call_accesses session (fun () -> combine session x h0 h1) in
    Alcotest.(check int) (name ^ " combine: 4 accesses per row") (4 * n) a
  in
  per_row "Or-ORAM" Or_oram_method.single Or_oram_method.combine;
  per_row "Ex-ORAM"
    (fun db col -> Ex_oram_method.single db col)
    (fun session x h1 h2 -> Ex_oram_method.combine session x h1 h2);
  (* A streaming insert and delete over the set list {A, B, AB}, as
     [Dynamic] runs them: two accesses per set for each. *)
  let session, db = traced_db table in
  let a = Ex_oram_method.single db ~capacity:64 0 and b = Ex_oram_method.single db ~capacity:64 1 in
  let ab = Ex_oram_method.combine session ~capacity:64 x a b in
  let (), accesses =
    call_accesses session (fun () ->
        Ex_oram_method.insert [ a; b; ab ] ~row:n [| Value.Int 1; Value.Int 2; Value.Int 0 |])
  in
  Alcotest.(check int) "insert: 2 accesses per set" (3 * 2) accesses;
  let (), accesses =
    call_accesses session (fun () -> Ex_oram_method.delete [ ab; a; b ] ~row:3)
  in
  Alcotest.(check int) "delete: 2 accesses per set" (3 * 2) accesses

let suite =
  [
    Alcotest.test_case "Sort: identical traces across datasets" `Quick
      test_sort_full_trace_identical_datasets;
    Alcotest.test_case "Sort: identical traces (single attr)" `Quick
      test_sort_full_trace_single_attr;
    Alcotest.test_case "Sort: size is (allowed) leakage" `Quick
      test_sort_trace_differs_across_sizes;
    Alcotest.test_case "ORAM: identical shapes across datasets" `Quick
      test_oram_shape_identical_datasets;
    Alcotest.test_case "ORAM: identical shapes (single attr)" `Quick
      test_oram_shape_single_attr;
    Alcotest.test_case "full protocol (Sort) identical for equal leakage" `Quick
      test_protocol_sort_identical_for_equal_leakage;
    Alcotest.test_case "full protocol (ORAM) same shape for equal leakage" `Quick
      test_protocol_oram_same_shape_for_equal_leakage;
    Alcotest.test_case "ORAM leaves vary across seeds" `Quick test_oram_leaves_vary_across_seeds;
    Alcotest.test_case "ORAM per-store projection: one path per access" `Quick
      test_per_store_projection;
    Alcotest.test_case "Ex-ORAM update shape data-independent" `Quick
      test_ex_oram_insert_delete_shape;
  ]
