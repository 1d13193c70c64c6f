(* Sorting-network tests: 0-1 principle, stage disjointness, driver
   correctness on real data, parallel driver equivalence. *)

let test_bitonic_sorts_01 () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "bitonic %d" n)
        true
        (Osort.Network.sorts_all_01 (Osort.Network.bitonic n)))
    [ 1; 2; 4; 8; 16 ]

let test_odd_even_merge_sorts_01 () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "oem %d" n)
        true
        (Osort.Network.sorts_all_01 (Osort.Network.odd_even_merge n)))
    [ 1; 2; 4; 8; 16 ]

let test_non_pow2_rejected () =
  Alcotest.(check bool) "bitonic 12 rejected" true
    (match Osort.Network.bitonic 12 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "oem 0 rejected" true
    (match Osort.Network.odd_even_merge 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stage_disjointness () =
  List.iter
    (fun n ->
      Alcotest.(check bool) "bitonic disjoint" true
        (Osort.Network.check_disjoint_stages (Osort.Network.bitonic n));
      Alcotest.(check bool) "oem disjoint" true
        (Osort.Network.check_disjoint_stages (Osort.Network.odd_even_merge n)))
    [ 2; 8; 64; 256 ]

let test_comparator_counts () =
  (* Bitonic on n elements has n/2 * log(n)(log(n)+1)/2 comparators. *)
  let n = 64 in
  let log = 6 in
  let net = Osort.Network.bitonic n in
  Alcotest.(check int) "bitonic comparators" (n / 2 * (log * (log + 1) / 2))
    (Osort.Network.comparator_count net);
  Alcotest.(check int) "bitonic stages" (log * (log + 1) / 2) (Osort.Network.stage_count net);
  let oem = Osort.Network.odd_even_merge n in
  Alcotest.(check bool) "oem strictly smaller" true
    (Osort.Network.comparator_count oem < Osort.Network.comparator_count net)

let test_ceil_pow2 () =
  List.iter
    (fun (n, expect) -> Alcotest.(check int) (string_of_int n) expect (Osort.Network.ceil_pow2 n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (1000, 1024) ]

(* Plaintext compare-exchange, in place. *)
let compare_exchange (a : int array) { Osort.Network.i; j; up } =
  let lo, hi = if a.(i) <= a.(j) then (a.(i), a.(j)) else (a.(j), a.(i)) in
  if up then begin
    a.(i) <- lo;
    a.(j) <- hi
  end
  else begin
    a.(i) <- hi;
    a.(j) <- lo
  end

(* Plaintext exchanger: run a slice of a pass in place, component by
   component. *)
let exchange_in a slice =
  Array.iter
    (fun c -> Array.iter (compare_exchange a) c.Osort.Network.comparators)
    slice

(* The reference: every stage in order, comparator by comparator. *)
let run_stages (net : Osort.Network.t) a =
  Array.iter (Array.iter (compare_exchange a)) net.Osort.Network.stages

let sort_array_with ?(block = 8) net (a : int array) =
  Osort.Driver.run (Osort.Network.passes net ~block) ~exchange:(exchange_in a)

let test_driver_sorts_ints () =
  let rng = Crypto.Rng.create 5 in
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> Crypto.Rng.int rng 1000) in
      let expect = Array.copy a in
      Array.sort compare expect;
      sort_array_with (Osort.Network.bitonic n) a;
      Alcotest.(check (array int)) (Printf.sprintf "sorted %d" n) expect a)
    [ 1; 2; 16; 128; 512 ]

let test_driver_duplicates () =
  let a = [| 3; 1; 3; 2; 1; 3; 2; 2 |] in
  sort_array_with (Osort.Network.bitonic 8) a;
  Alcotest.(check (array int)) "duplicates" [| 1; 1; 2; 2; 2; 3; 3; 3 |] a

(* Every worker gets its contiguous share of every pass's components,
   in pass order.  Domain counts include passes (32 components of 8
   slots and more) that they do not divide, and more domains than some
   pass has components. *)
let test_parallel_matches_sequential () =
  let rng = Crypto.Rng.create 9 in
  List.iter
    (fun (n, domains) ->
      let orig = Array.init n (fun _ -> Crypto.Rng.int rng 10000) in
      let seq = Array.copy orig and par = Array.copy orig in
      let net = Osort.Network.bitonic n in
      let passes = Osort.Network.passes net ~block:8 in
      sort_array_with net seq;
      let handed = ref [] in
      let seen = Array.make domains [] in
      let make_exchange w =
        handed := w :: !handed;
        fun slice ->
          seen.(w) <- slice :: seen.(w);
          exchange_in par slice
      in
      Osort.Driver.run_parallel passes ~domains ~make_exchange;
      let label = Printf.sprintf "n = %d, %d domains" n domains in
      Alcotest.(check (list int))
        (label ^ ": each worker index built once")
        (List.init domains Fun.id) (List.rev !handed);
      let shares w =
        List.filter_map
          (fun { Osort.Network.components; _ } ->
            let len = Array.length components in
            let share = (len + domains - 1) / domains in
            let lo = min len (w * share) and hi = min len ((w + 1) * share) in
            if lo < hi then Some (Array.sub components lo (hi - lo)) else None)
          (Array.to_list passes)
      in
      Array.iteri
        (fun w slices ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: worker %d runs its shares in order" label w)
            true
            (List.rev slices = shares w))
        seen;
      Alcotest.(check (array int)) label seq par)
    [ (256, 1); (256, 2); (256, 3); (256, 4); (4, 3); (2, 4) ]

(* A worker whose exchange raises breaks the pass barrier: the other
   worker stops waiting, both domains are joined, and the call raises
   the worker's exception instead of hanging.  At [block = 2] a pass is
   one stage, of 32 two-slot components at n = 64. *)
let test_parallel_worker_failure () =
  let passes = Osort.Network.passes (Osort.Network.bitonic 64) ~block:2 in
  let count = ref 0 in
  let make_exchange w _slice =
    if w = 1 then failwith "worker 1, pass 0" else incr count
  in
  Alcotest.check_raises "worker 1's exception" (Failure "worker 1, pass 0") (fun () ->
      Osort.Driver.run_parallel passes ~domains:2 ~make_exchange);
  Alcotest.(check int) "worker 0 stops after pass 0" 1 !count

(* {2 Passes} *)

let networks = [ ("bitonic", Osort.Network.bitonic); ("odd-even merge", Osort.Network.odd_even_merge) ]
let blocks = [ 2; 4; 8; 64 ]
let sizes = List.init 11 (fun k -> 1 lsl k)

(* Every network and block of the property tests, at every size. *)
let each_grouping f =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let net = make n in
          List.iter
            (fun block ->
              f (Printf.sprintf "%s n = %d, block %d" name n block) net block
                (Osort.Network.passes net ~block))
            blocks)
        sizes)
    networks

(* Passes tile the stages in order, each at least one stage long; a
   component's comparators are exactly its pass's comparators on its
   slots, in stage order; and the cut is greedy: a pass and the stage
   after it make a component of more than [block] slots. *)
let test_passes_cover_stages () =
  each_grouping (fun label net block passes ->
      let next =
        Array.fold_left
          (fun expect { Osort.Network.first; count; components } ->
            Alcotest.(check int) (label ^ ": pass starts where the last ended") expect first;
            Alcotest.(check bool) (label ^ ": pass is not empty") true (count >= 1);
            let stages = Array.sub net.Osort.Network.stages first count in
            let owner = Array.make net.Osort.Network.n (-1) in
            Array.iteri
              (fun k c -> Array.iter (fun slot -> owner.(slot) <- k) c.Osort.Network.slots)
              components;
            let expect = Array.make (Array.length components) [] in
            Array.iter
              (Array.iter (fun ({ Osort.Network.i; _ } as c) ->
                   expect.(owner.(i)) <- c :: expect.(owner.(i))))
              stages;
            Array.iteri
              (fun k { Osort.Network.comparators; _ } ->
                Alcotest.(check bool)
                  (label ^ ": component comparators in stage order")
                  true
                  (Array.to_list comparators = List.rev expect.(k)))
              components;
            Alcotest.(check int)
              (label ^ ": every comparator in a component")
              (Array.fold_left (fun acc st -> acc + Array.length st) 0 stages)
              (Array.fold_left (fun acc c -> acc + Array.length c.Osort.Network.comparators) 0 components);
            if first + count < Osort.Network.stage_count net then
              Alcotest.(check int)
                (label ^ ": greedy, the next stage does not fit")
                2
                (Array.length
                   (Osort.Network.passes
                      { net with stages = Array.sub net.Osort.Network.stages first (count + 1) }
                      ~block));
            first + count)
          0 passes
      in
      Alcotest.(check int) (label ^ ": every stage covered") (Osort.Network.stage_count net) next)

(* A pass's components hold ascending slots, at most [block] of them,
   share none, come in order of their smallest slot, and hold exactly
   the slots their comparators touch. *)
let test_pass_components_disjoint () =
  each_grouping (fun label net block passes ->
      let within = ref true and ascending = ref true and disjoint = ref true in
      let ordered = ref true and exact = ref true in
      Array.iter
        (fun { Osort.Network.components; _ } ->
          let owner = Array.make net.Osort.Network.n (-1) in
          Array.iteri
            (fun k { Osort.Network.slots; comparators } ->
              let len = Array.length slots in
              if len < 2 || len > block then within := false;
              Array.iteri
                (fun x slot ->
                  if x > 0 && slots.(x - 1) >= slot then ascending := false;
                  if owner.(slot) <> -1 then disjoint := false;
                  owner.(slot) <- k)
                slots;
              if k > 0 && components.(k - 1).Osort.Network.slots.(0) >= slots.(0) then
                ordered := false;
              let touched =
                List.sort_uniq compare
                  (List.concat_map (fun { Osort.Network.i; j; _ } -> [ i; j ]) (Array.to_list comparators))
              in
              if touched <> Array.to_list slots then exact := false)
            components)
        passes;
      List.iter
        (fun (what, ok) -> Alcotest.(check bool) (label ^ ": " ^ what) true !ok)
        [ ("2 to block slots", within); ("slots ascending", ascending);
          ("slot in one component", disjoint); ("ordered by smallest slot", ordered);
          ("slots = slots touched", exact) ])

(* The pass counts at the block of Sort's client buffer (B = 64). *)
let test_pass_counts () =
  List.iter
    (fun (name, make, expect) ->
      Alcotest.(check (list int))
        (name ^ " passes at n = 2^6, 2^8, 2^11")
        expect
        (List.map (fun k -> Array.length (Osort.Network.passes (make (1 lsl k)) ~block:64)) [ 6; 8; 11 ]))
    [ ("bitonic", Osort.Network.bitonic, [ 1; 4; 9 ]);
      ("odd-even merge", Osort.Network.odd_even_merge, [ 1; 6; 21 ]) ];
  Alcotest.(check int) "bitonic stages at 2^11" 66
    (Osort.Network.stage_count (Osort.Network.bitonic 2048));
  Alcotest.(check bool) "block 1 rejected" true
    (match Osort.Network.passes (Osort.Network.bitonic 4) ~block:1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The 0-1 principle through passes: at [block = 4], n = 8 and 16 run
   in several passes, and every boolean input comes out sorted. *)
let test_passes_sort_all_01 () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let net = make n in
          let passes = Osort.Network.passes net ~block:4 in
          let ok = ref true in
          for mask = 0 to (1 lsl n) - 1 do
            let a = Array.init n (fun i -> (mask lsr i) land 1) in
            Osort.Driver.run passes ~exchange:(exchange_in a);
            for i = 0 to n - 2 do
              if a.(i) > a.(i + 1) then ok := false
            done
          done;
          Alcotest.(check bool)
            (Printf.sprintf "%s n = %d: %d passes sort every 0-1 input" name n
               (Array.length passes))
            true !ok)
        [ 1; 2; 4; 8; 16 ])
    networks

let qcheck_passes_match_stages =
  QCheck.Test.make ~name:"passes = stages on arbitrary int arrays" ~count:200
    QCheck.(
      triple (int_bound 1) (oneofl blocks) (array_of_size (Gen.oneofl sizes) int))
    (fun (which, block, a) ->
      let net = (snd (List.nth networks which)) (Array.length a) in
      let by_stage = Array.copy a and by_pass = Array.copy a in
      run_stages net by_stage;
      sort_array_with ~block net by_pass;
      by_stage = by_pass)

let qcheck_bitonic_sorts_random =
  QCheck.Test.make ~name:"bitonic sorts arbitrary int arrays" ~count:50
    QCheck.(array_of_size (Gen.oneofl [ 1; 2; 4; 8; 16; 32; 64 ]) int)
    (fun a ->
      let a = Array.copy a in
      let expect = Array.copy a in
      Array.sort compare expect;
      sort_array_with (Osort.Network.bitonic (Array.length a)) a;
      a = expect)

let qcheck_oem_sorts_random =
  QCheck.Test.make ~name:"odd-even-merge sorts arbitrary int arrays" ~count:50
    QCheck.(array_of_size (Gen.oneofl [ 1; 2; 4; 8; 16; 32; 64 ]) int)
    (fun a ->
      let a = Array.copy a in
      let expect = Array.copy a in
      Array.sort compare expect;
      sort_array_with (Osort.Network.odd_even_merge (Array.length a)) a;
      a = expect)

let qcheck_network_is_permutation =
  QCheck.Test.make ~name:"network output is a permutation of input" ~count:50
    QCheck.(array_of_size (Gen.return 32) (int_bound 100))
    (fun a ->
      let b = Array.copy a in
      sort_array_with (Osort.Network.bitonic 32) b;
      List.sort compare (Array.to_list a) = Array.to_list b)

let suite =
  [
    Alcotest.test_case "bitonic 0-1 principle" `Quick test_bitonic_sorts_01;
    Alcotest.test_case "odd-even-merge 0-1 principle" `Quick test_odd_even_merge_sorts_01;
    Alcotest.test_case "non-power-of-two rejected" `Quick test_non_pow2_rejected;
    Alcotest.test_case "stages are disjoint" `Quick test_stage_disjointness;
    Alcotest.test_case "comparator counts" `Quick test_comparator_counts;
    Alcotest.test_case "ceil_pow2" `Quick test_ceil_pow2;
    Alcotest.test_case "driver sorts ints" `Quick test_driver_sorts_ints;
    Alcotest.test_case "driver handles duplicates" `Quick test_driver_duplicates;
    Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "parallel worker failure" `Quick test_parallel_worker_failure;
    Alcotest.test_case "passes cover every stage once, in order" `Quick test_passes_cover_stages;
    Alcotest.test_case "pass components disjoint, within block" `Quick
      test_pass_components_disjoint;
    Alcotest.test_case "pass counts at B = 64" `Quick test_pass_counts;
    Alcotest.test_case "passes sort every 0-1 input" `Quick test_passes_sort_all_01;
    QCheck_alcotest.to_alcotest qcheck_bitonic_sorts_random;
    QCheck_alcotest.to_alcotest qcheck_oem_sorts_random;
    QCheck_alcotest.to_alcotest qcheck_network_is_permutation;
    QCheck_alcotest.to_alcotest qcheck_passes_match_stages;
  ]
