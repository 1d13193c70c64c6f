(* Dynamic maintenance (§V): Ex-ORAM cardinalities and FD re-validation
   must track a shadow plaintext table through arbitrary insert/delete
   sequences. *)

open Relation
open Core

let v x = Value.Int x

let small_table () =
  let schema = Schema.make [| "A"; "B"; "C" |] in
  Table.make schema
    [|
      [| v 1; v 10; v 100 |];
      [| v 1; v 10; v 200 |];
      [| v 2; v 20; v 100 |];
      [| v 3; v 20; v 200 |];
    |]

let test_start_matches_tane () =
  let t = small_table () in
  let d = Dynamic.start ~capacity:32 t in
  let pp_fds fds = String.concat ";" (List.map (Format.asprintf "%a" Fdbase.Fd.pp) fds) in
  Alcotest.(check string) "initial FDs" (pp_fds (Fdbase.Tane.fds t)) (pp_fds (Dynamic.fds d));
  Alcotest.(check int) "live" 4 (Dynamic.live_records d);
  Dynamic.release d

let test_insert_updates_cardinalities () =
  let t = small_table () in
  let d = Dynamic.start ~capacity:32 t in
  let card x = Option.get (Dynamic.cardinality d (Attrset.of_list x)) in
  Alcotest.(check int) "|π_A| before" 3 (card [ 0 ]);
  ignore (Dynamic.insert d [| v 9; v 10; v 100 |]);
  Alcotest.(check int) "|π_A| after" 4 (card [ 0 ]);
  Alcotest.(check int) "|π_B| unchanged" 2 (card [ 1 ]);
  (* AB pairs now {(1,10), (2,20), (3,20), (9,10)}. *)
  Alcotest.(check int) "|π_AB| after" 4 (card [ 0; 1 ]);
  Alcotest.(check int) "live" 5 (Dynamic.live_records d);
  Dynamic.release d

let test_insert_breaks_fd () =
  (* A → B holds initially; inserting (1, 99, _) breaks it. *)
  let t = small_table () in
  let d = Dynamic.start ~capacity:32 t in
  let fd_ab = { Fdbase.Fd.lhs = Attrset.singleton 0; rhs = 1 } in
  let status fd l = List.assoc fd (List.map (fun (f, b) -> (f, b)) l) in
  let before = Dynamic.revalidate d in
  Alcotest.(check bool) "A→B holds initially" true (status fd_ab before);
  ignore (Dynamic.insert d [| v 1; v 99; v 1 |]);
  let after = Dynamic.revalidate d in
  Alcotest.(check bool) "A→B broken by insert" false (status fd_ab after);
  Dynamic.release d

let test_delete_restores_fd () =
  let t = small_table () in
  let d = Dynamic.start ~capacity:32 t in
  let fd_ab = { Fdbase.Fd.lhs = Attrset.singleton 0; rhs = 1 } in
  let id = Dynamic.insert d [| v 1; v 99; v 1 |] in
  Alcotest.(check bool) "broken" false (List.assoc fd_ab (Dynamic.revalidate d));
  Dynamic.delete d ~id;
  Alcotest.(check bool) "restored" true (List.assoc fd_ab (Dynamic.revalidate d));
  Alcotest.(check int) "live back to 4" 4 (Dynamic.live_records d);
  Dynamic.release d

let test_delete_updates_cardinality () =
  let t = small_table () in
  let d = Dynamic.start ~capacity:32 t in
  let card x = Option.get (Dynamic.cardinality d (Attrset.of_list x)) in
  (* Delete row 3 (A=3): |π_A| drops from 3 to 2. *)
  Dynamic.delete d ~id:3;
  Alcotest.(check int) "|π_A|" 2 (card [ 0 ]);
  (* Delete row 0 (A=1 shared with row 1): |π_A| stays 2. *)
  Dynamic.delete d ~id:0;
  Alcotest.(check int) "|π_A| shared value" 2 (card [ 0 ]);
  Alcotest.(check int) "live" 2 (Dynamic.live_records d);
  Dynamic.release d

let test_delete_absent_id_noop () =
  let t = small_table () in
  let d = Dynamic.start ~capacity:32 t in
  Dynamic.delete d ~id:77;
  Alcotest.(check int) "live unchanged" 4 (Dynamic.live_records d);
  let card x = Option.get (Dynamic.cardinality d (Attrset.of_list x)) in
  Alcotest.(check int) "|π_A| unchanged" 3 (card [ 0 ]);
  Dynamic.release d

let shadow_check d table =
  (* Compare every retained cardinality against the shadow table. *)
  let m = Table.cols table in
  for a = 0 to m - 1 do
    let x = Attrset.singleton a in
    match Dynamic.cardinality d x with
    | None -> ()
    | Some c ->
        let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table table x) in
        Alcotest.(check int) (Format.asprintf "|π_%a|" Attrset.pp x) expect c
  done

let test_random_update_sequence_vs_shadow () =
  let rng = Crypto.Rng.create 77 in
  let t = Datasets.Rnd.generate_with_domain ~seed:50 ~rows:12 ~cols:3 ~domain:3 () in
  let d = Dynamic.start ~capacity:128 t in
  let shadow = ref t in
  let ids = ref (List.init 12 Fun.id) in
  (* Map our ids to shadow row positions. *)
  let id_list () = !ids in
  for _step = 1 to 40 do
    if Crypto.Rng.bool rng || List.length (id_list ()) = 0 then begin
      let row = Array.init 3 (fun _ -> v (1 + Crypto.Rng.int rng 3)) in
      let id = Dynamic.insert d row in
      shadow := Table.append_row !shadow row;
      ids := !ids @ [ id ]
    end
    else begin
      let pos = Crypto.Rng.int rng (List.length (id_list ())) in
      let id = List.nth !ids pos in
      Dynamic.delete d ~id;
      shadow := Table.remove_row !shadow pos;
      ids := List.filteri (fun i _ -> i <> pos) !ids
    end
  done;
  Alcotest.(check int) "live matches shadow" (Table.rows !shadow) (Dynamic.live_records d);
  shadow_check d !shadow;
  (* Re-validated FD statuses must match direct validation on the shadow. *)
  List.iter
    (fun (fd, ok) ->
      Alcotest.(check bool)
        (Format.asprintf "%a" Fdbase.Fd.pp fd)
        (Fdbase.Validator.holds_fd !shadow fd)
        ok)
    (Dynamic.revalidate d);
  Dynamic.release d

let test_label_reuse_after_churn () =
  (* Regression: when the last record of a key is deleted the key's
     label is retired; a later fresh key must not be given a label a
     live key still holds.  (Allocating labels from [card] — the static
     formulation — collides here: C=200 dies freeing nothing reusable,
     C=3 arrives and got C=1's label, conflating AC pairs (2,1)/(2,3).) *)
  let t = small_table () in
  let d = Dynamic.start ~capacity:64 t in
  let card x = Option.get (Dynamic.cardinality d (Attrset.of_list x)) in
  Dynamic.delete d ~id:3;
  ignore (Dynamic.insert d [| v 2; v 3; v 1 |]);
  ignore (Dynamic.insert d [| v 3; v 1; v 1 |]);
  Dynamic.delete d ~id:2;
  Dynamic.delete d ~id:1;
  ignore (Dynamic.insert d [| v 2; v 1; v 3 |]);
  (* Live rows: (1,10,100) (2,3,1) (3,1,1) (2,1,3) — every pair
     projection is 4 distinct values. *)
  Alcotest.(check int) "|π_AB|" 4 (card [ 0; 1 ]);
  Alcotest.(check int) "|π_AC|" 4 (card [ 0; 2 ]);
  Alcotest.(check int) "|π_BC|" 4 (card [ 1; 2 ]);
  Dynamic.release d

(* The attribute sets a session maintains, out of every non-empty subset
   of its [m] columns. *)
let retained d ~m =
  List.filter
    (fun x -> Dynamic.cardinality d x <> None)
    (List.init ((1 lsl m) - 1) (fun i -> Attrset.of_int (i + 1)))

(* A session whose [revalidate] has materialised a 3-set: A is a key and
   BC was one, so A -> B, A -> C and BC -> A are found with AC and ABC
   pruned; inserting (5, 1, 1) breaks BC's key, and re-checking BC -> A
   materialises ABC (and its generator AC). *)
let depth3 () =
  let schema = Schema.make [| "A"; "B"; "C" |] in
  let t =
    Table.make schema
      [| [| v 1; v 1; v 1 |]; [| v 2; v 1; v 2 |]; [| v 3; v 2; v 1 |]; [| v 4; v 2; v 2 |] |]
  in
  let d = Dynamic.start ~seed:123 ~capacity:32 t in
  ignore (Dynamic.insert d [| v 5; v 1; v 1 |]);
  ignore (Dynamic.revalidate d);
  d

(* {2 Frames per update}: an insert stages the retained sets by |X|, one
   frame per stage plus a puts-only frame, and a delete shares three
   frames among all sets, however many sets the session keeps. *)
let test_frames_per_update () =
  let trips d = (Servsim.Cost.snapshot (Session.cost (Dynamic.session d))).Servsim.Cost.round_trips in
  let frames d f =
    let t0 = trips d in
    f ();
    trips d - t0
  in
  let check name d ~m ~depth ~row =
    let sets = retained d ~m in
    Alcotest.(check int)
      (name ^ ": deepest retained set")
      depth
      (List.fold_left (fun acc x -> max acc (Attrset.cardinal x)) 0 sets);
    let id = ref 0 in
    Alcotest.(check int)
      (Printf.sprintf "%s: insert over %d sets" name (List.length sets))
      (depth + 1)
      (frames d (fun () -> id := Dynamic.insert d row));
    Alcotest.(check int) (name ^ ": delete of a live id") 3
      (frames d (fun () -> Dynamic.delete d ~id:!id));
    Alcotest.(check int) (name ^ ": delete of a dead id") 3
      (frames d (fun () -> Dynamic.delete d ~id:!id));
    Alcotest.(check int) (name ^ ": delete of an absent id") 3
      (frames d (fun () -> Dynamic.delete d ~id:77));
    Dynamic.release d
  in
  let schema = Schema.make [| "A"; "B" |] in
  let keys = Table.make schema [| [| v 1; v 9 |]; [| v 2; v 8 |] |] in
  check "singletons" (Dynamic.start ~capacity:16 keys) ~m:2 ~depth:1 ~row:[| v 3; v 7 |];
  let d = depth3 () in
  Alcotest.(check int) "depth-3 session keeps 6 sets" 6 (List.length (retained d ~m:3));
  check "depth 3" d ~m:3 ~depth:3 ~row:[| v 6; v 2; v 1 |];
  (* A set list the schedule cannot run is refused before any frame:
     a combined set without its generators, or a set listed twice. *)
  let session = Session.create ~n:1 ~m:2 () in
  let a = Ex_oram_method.create session (Attrset.singleton 0) ~capacity:4 in
  let ab = Ex_oram_method.create session (Attrset.of_list [ 0; 1 ]) ~capacity:4 in
  let sent () = (Servsim.Cost.snapshot (Session.cost session)).Servsim.Cost.round_trips in
  let t0 = sent () in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " refused") true
        (match f () with () -> false | exception Invalid_argument _ -> true))
    [
      ("insert without generators", fun () -> Ex_oram_method.insert [ a; ab ] ~row:0 [| v 1; v 2 |]);
      ("insert listing a set twice", fun () -> Ex_oram_method.insert [ a; a ] ~row:0 [| v 1; v 2 |]);
      ("delete listing a set twice", fun () -> Ex_oram_method.delete [ a; a ] ~row:0);
    ];
  Alcotest.(check int) "refused calls send no frame" t0 (sent ())

(* {2 Streaming session pin}: digests, ledger and ciphertexts of one
   fixed session — discovery, inserts that reach a materialised 3-set,
   deletes of a live, an absent and a dead id, and two revalidations.
   Building an update's ORAM accesses draws leaves and answering them
   draws remaps and IVs, so reordering any of them moves these
   values.  The ORAM bucket layout (one ciphertext per bucket) fixes
   the event count, bytes, digests and content; the trips do not
   depend on it. *)
let test_stream_pin () =
  let d = depth3 () in
  let a = Dynamic.insert d [| v 6; v 2; v 1 |] in
  ignore (Dynamic.insert d [| v 7; v 1; v 2 |]);
  Dynamic.delete d ~id:1;
  Dynamic.delete d ~id:99;
  Dynamic.delete d ~id:a;
  Dynamic.delete d ~id:a;
  ignore (Dynamic.insert d [| v 2; v 2; v 2 |]);
  Alcotest.(check (list bool)) "revalidate" [ true; true; false ]
    (List.map snd (Dynamic.revalidate d));
  Suite_oram.check_golden (Dynamic.session d).Session.server ~full:0x962c4e3b0f617e23L
    ~shape:0x70fc4ee99b8172afL ~count:2844 ~to_server:288199 ~to_client:167680 ~trips:98
    ~content:"a55dede97d559906291d4786b2734524";
  Dynamic.release d

(* {2 §V obliviousness: deleting a dead record looks like deleting a
   live one}

   Algorithm 5 performs the same number and kind of ORAM accesses
   whether the ID is present, already deleted, or never existed — the
   absent branch substitutes a dummy O^KLF access for the key's.  ORAM
   paths are (seeded-)random, so the assertion is on the {e shape}
   digest (op kinds, stores, lengths — the repo's standard for
   ORAM-based methods), which must not depend on liveness; the event
   count pins the one-for-one substitution.  The same holds for an
   insert's values. *)
let shape_after ~start f =
  let d = start () in
  f d;
  let tr = Session.trace (Dynamic.session d) in
  let r = (Servsim.Trace.shape_digest tr, Servsim.Trace.count tr) in
  Dynamic.release d;
  r

let test_delete_dead_vs_live_trace () =
  List.iter
    (fun (name, start) ->
      (* Never-inserted ID vs a live one... *)
      let live_s, live_n = shape_after ~start (fun d -> Dynamic.delete d ~id:0) in
      let dead_s, dead_n = shape_after ~start (fun d -> Dynamic.delete d ~id:77) in
      Alcotest.(check int) (name ^ ": absent id: same access count") live_n dead_n;
      Alcotest.(check int64) (name ^ ": absent id: same trace shape") live_s dead_s;
      (* ...and an already-deleted ID vs a live one, after an identical
         prefix (both sessions delete id 0 first). *)
      let live_s, live_n =
        shape_after ~start (fun d ->
            Dynamic.delete d ~id:0;
            Dynamic.delete d ~id:1)
      in
      let dead_s, dead_n =
        shape_after ~start (fun d ->
            Dynamic.delete d ~id:0;
            Dynamic.delete d ~id:0)
      in
      Alcotest.(check int) (name ^ ": re-deleted id: same access count") live_n dead_n;
      Alcotest.(check int64) (name ^ ": re-deleted id: same trace shape") live_s dead_s;
      (* An insert's shape does not depend on its values either. *)
      let ins_s, ins_n = shape_after ~start (fun d -> ignore (Dynamic.insert d [| v 1; v 10; v 100 |])) in
      let new_s, new_n = shape_after ~start (fun d -> ignore (Dynamic.insert d [| v 7; v 8; v 9 |])) in
      Alcotest.(check int) (name ^ ": insert: same access count") ins_n new_n;
      Alcotest.(check int64) (name ^ ": insert: same trace shape") ins_s new_s)
    [
      ("lattice", fun () -> Dynamic.start ~seed:123 ~capacity:32 (small_table ()));
      ("depth 3", depth3);
    ]

(* {2 QCheck: random update sequences ≡ fresh Ex-ORAM discovery}

   Any insert/delete sequence, applied through the maintained lattice,
   must agree with a from-scratch Ex-ORAM discovery over the resulting
   table: an initial FD revalidates as valid exactly when the fresh
   run's (minimal) FD set implies it.  The same sequence run twice with
   the same seed must also be bit-identical — trace digests included —
   which is the determinism the service layer's journal replay and the
   per-tenant digest parity checks stand on. *)
let ops_gen =
  QCheck.Gen.(
    pair (int_bound 10000)
      (list_size (2 -- 10)
         (pair
            (frequency [ (4, return `Insert); (3, return `Delete); (1, return `Revalidate) ])
            (triple (int_bound 2) (int_bound 2) (int_bound 2)))))

let apply_ops ~seed ops =
  let t = small_table () in
  let d = Dynamic.start ~seed ~capacity:64 t in
  let shadow = ref t and ids = ref (List.init 4 Fun.id) in
  List.iter
    (fun (op, (a, b, c)) ->
      match op with
      | `Revalidate -> ignore (Dynamic.revalidate d)
      | `Delete when !ids <> [] ->
          let pos = (a * 7 + (b * 3) + c) mod List.length !ids in
          Dynamic.delete d ~id:(List.nth !ids pos);
          shadow := Table.remove_row !shadow pos;
          ids := List.filteri (fun i _ -> i <> pos) !ids
      | `Insert | `Delete ->
          let row = [| v (a + 1); v (b + 1); v (c + 1) |] in
          let id = Dynamic.insert d row in
          shadow := Table.append_row !shadow row;
          ids := !ids @ [ id ])
    ops;
  (* Every retained set, those a mid-stream revalidate materialised
     included, with its maintained |π_X|. *)
  let cards = List.map (fun x -> (x, Dynamic.cardinality d x)) (retained d ~m:3) in
  let reval = Dynamic.revalidate d in
  let tr = Session.trace (Dynamic.session d) in
  let digests =
    (Servsim.Trace.full_digest tr, Servsim.Trace.shape_digest tr, Servsim.Trace.count tr)
  in
  Dynamic.release d;
  (!shadow, cards, reval, digests)

let qcheck_dynamic_vs_fresh_discovery =
  QCheck.Test.make ~name:"random updates = fresh Ex-ORAM discovery, deterministic digests"
    ~count:12 (QCheck.make ops_gen)
    (fun (seed, ops) ->
      let shadow, cards, reval, digests = apply_ops ~seed ops in
      let shadow2, cards2, reval2, digests2 = apply_ops ~seed ops in
      if not (Table.equal shadow shadow2 && cards = cards2 && reval = reval2 && digests = digests2)
      then QCheck.Test.fail_report "two identical runs diverged";
      List.iter
        (fun (x, card) ->
          let expect = Fdbase.Partition.cardinality (Fdbase.Partition.of_table shadow x) in
          if card <> Some expect then
            QCheck.Test.fail_reportf "|pi_%s| = %s, plaintext %d"
              (Format.asprintf "%a" Attrset.pp x)
              (match card with Some c -> string_of_int c | None -> "none")
              expect)
        cards;
      if Table.rows shadow = 0 then true
      else begin
        let fresh = Dynamic.start ~seed:(seed + 1) ~capacity:64 shadow in
        let fresh_fds = Dynamic.fds fresh in
        Dynamic.release fresh;
        let m = Table.cols shadow in
        List.for_all
          (fun (fd, valid) ->
            valid
            = Fdbase.Fd.implies ~m fresh_fds ~lhs:fd.Fdbase.Fd.lhs
                ~rhs:(Attrset.singleton fd.Fdbase.Fd.rhs))
          reval
      end)

let test_reinsert_same_id_space () =
  (* Values equal to deleted ones must be re-countable. *)
  let schema = Schema.make [| "A" |] in
  let t = Table.make schema [| [| v 5 |]; [| v 6 |] |] in
  let d = Dynamic.start ~capacity:16 t in
  let card () = Option.get (Dynamic.cardinality d (Attrset.singleton 0)) in
  Alcotest.(check int) "2 distinct" 2 (card ());
  Dynamic.delete d ~id:0;
  Alcotest.(check int) "1 distinct" 1 (card ());
  ignore (Dynamic.insert d [| v 5 |]);
  Alcotest.(check int) "back to 2" 2 (card ());
  ignore (Dynamic.insert d [| v 5 |]);
  Alcotest.(check int) "duplicate adds nothing" 2 (card ());
  Dynamic.release d

let test_capacity_enforced () =
  let schema = Schema.make [| "A" |] in
  let t = Table.make schema [| [| v 1 |] |] in
  let d = Dynamic.start ~capacity:16 t in
  Alcotest.(check bool) "overflow rejected" true
    (try
       for i = 0 to 20 do
         ignore (Dynamic.insert d [| v i |])
       done;
       false
     with Invalid_argument _ -> true);
  Dynamic.release d

let test_grow_small_table () =
  (* Start from a 4-row table with no FDs (so the whole 2-attribute
     lattice is materialised), then grow it. *)
  let schema = Schema.make [| "A"; "B" |] in
  let t =
    Table.make schema [| [| v 1; v 1 |]; [| v 1; v 2 |]; [| v 2; v 1 |]; [| v 2; v 2 |] |]
  in
  let d = Dynamic.start ~capacity:16 t in
  ignore (Dynamic.insert d [| v 3; v 1 |]);
  ignore (Dynamic.insert d [| v 3; v 2 |]);
  let card x = Option.get (Dynamic.cardinality d (Attrset.of_list x)) in
  Alcotest.(check int) "|π_A|" 3 (card [ 0 ]);
  Alcotest.(check int) "|π_B|" 2 (card [ 1 ]);
  Alcotest.(check int) "|π_AB|" 6 (card [ 0; 1 ]);
  Dynamic.release d

let test_non_lattice_set_not_tracked () =
  (* A degenerate table where every column is a key: the pair {A,B} is
     key-pruned at level 1 and hence not materialised — [cardinality]
     reports None rather than a stale number. *)
  let schema = Schema.make [| "A"; "B" |] in
  let t = Table.make schema [| [| v 1; v 9 |]; [| v 2; v 8 |] |] in
  let d = Dynamic.start ~capacity:16 t in
  Alcotest.(check (option int)) "AB not retained" None
    (Dynamic.cardinality d (Attrset.of_list [ 0; 1 ]));
  Alcotest.(check (option int)) "A retained" (Some 2)
    (Dynamic.cardinality d (Attrset.of_list [ 0 ]));
  Dynamic.release d

(* A set that [revalidate] materialises outside the lattice plan (the
   pair of a key-pruned FD) must be maintained by every later update,
   or the next [revalidate] reads a stale |π_X|. *)
let test_materialised_set_maintained () =
  let schema = Schema.make [| "A"; "B" |] in
  let t = Table.make schema [| [| v 1; v 9 |]; [| v 2; v 8 |] |] in
  let d = Dynamic.start ~capacity:16 t in
  let a_to_b () =
    List.assoc { Fdbase.Fd.lhs = Attrset.singleton 0; rhs = 1 } (Dynamic.revalidate d)
  in
  ignore (Dynamic.insert d [| v 1; v 9 |]);
  Alcotest.(check bool) "A -> B holds with A no longer a key" true (a_to_b ());
  ignore (Dynamic.insert d [| v 1; v 7 |]);
  Alcotest.(check (option int)) "|π_AB| maintained" (Some 3)
    (Dynamic.cardinality d (Attrset.of_list [ 0; 1 ]));
  Alcotest.(check bool) "A -> B broken by (1, 7)" false (a_to_b ());
  Dynamic.release d

let suite =
  [
    Alcotest.test_case "start matches TANE" `Quick test_start_matches_tane;
    Alcotest.test_case "insert updates cardinalities" `Quick test_insert_updates_cardinalities;
    Alcotest.test_case "insert breaks FD" `Quick test_insert_breaks_fd;
    Alcotest.test_case "delete restores FD" `Quick test_delete_restores_fd;
    Alcotest.test_case "delete updates cardinality" `Quick test_delete_updates_cardinality;
    Alcotest.test_case "delete of absent id is a no-op" `Quick test_delete_absent_id_noop;
    Alcotest.test_case "random updates vs shadow table" `Slow test_random_update_sequence_vs_shadow;
    Alcotest.test_case "label reuse after churn" `Quick test_label_reuse_after_churn;
    Alcotest.test_case "delete of dead id is trace-indistinguishable" `Quick
      test_delete_dead_vs_live_trace;
    QCheck_alcotest.to_alcotest qcheck_dynamic_vs_fresh_discovery;
    Alcotest.test_case "reinsertion of deleted values" `Quick test_reinsert_same_id_space;
    Alcotest.test_case "capacity enforced" `Quick test_capacity_enforced;
    Alcotest.test_case "grow a small table" `Quick test_grow_small_table;
    Alcotest.test_case "pruned sets are not tracked" `Quick test_non_lattice_set_not_tracked;
    Alcotest.test_case "materialised set maintained" `Quick test_materialised_set_maintained;
    Alcotest.test_case "frames per update" `Quick test_frames_per_update;
    Alcotest.test_case "streaming session pin" `Quick test_stream_pin;
  ]
