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

(* Plaintext exchanger: run a slice of a stage in place. *)
let exchange_in (a : int array) slice =
  Array.iter
    (fun { Osort.Network.i; j; up } ->
      let lo, hi = if a.(i) <= a.(j) then (a.(i), a.(j)) else (a.(j), a.(i)) in
      if up then begin
        a.(i) <- lo;
        a.(j) <- hi
      end
      else begin
        a.(i) <- hi;
        a.(j) <- lo
      end)
    slice

let sort_array_with net (a : int array) = Osort.Driver.run net ~exchange:(exchange_in a)

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

(* Every worker gets its contiguous share of every stage, in stage
   order.  Domain counts include stages (128 comparators) that they do
   not divide, and more domains than some stage has comparators. *)
let test_parallel_matches_sequential () =
  let rng = Crypto.Rng.create 9 in
  List.iter
    (fun (n, domains) ->
      let orig = Array.init n (fun _ -> Crypto.Rng.int rng 10000) in
      let seq = Array.copy orig and par = Array.copy orig in
      let net = Osort.Network.bitonic n in
      sort_array_with net seq;
      let handed = ref [] in
      let seen = Array.make domains [] in
      let make_exchange w =
        handed := w :: !handed;
        fun slice ->
          seen.(w) <- slice :: seen.(w);
          exchange_in par slice
      in
      Osort.Driver.run_parallel net ~domains ~make_exchange;
      let label = Printf.sprintf "n = %d, %d domains" n domains in
      Alcotest.(check (list int))
        (label ^ ": each worker index built once")
        (List.init domains Fun.id) (List.rev !handed);
      let shares w =
        List.filter_map
          (fun stage ->
            let len = Array.length stage in
            let share = (len + domains - 1) / domains in
            let lo = min len (w * share) and hi = min len ((w + 1) * share) in
            if lo < hi then Some (Array.sub stage lo (hi - lo)) else None)
          (Array.to_list net.Osort.Network.stages)
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

(* A worker whose exchange raises breaks the stage barrier: the other
   worker stops waiting, both domains are joined, and the call raises
   the worker's exception instead of hanging. *)
let test_parallel_worker_failure () =
  let net = Osort.Network.bitonic 64 in
  let stages = ref 0 in
  let make_exchange w _slice =
    if w = 1 then failwith "worker 1, stage 0" else incr stages
  in
  Alcotest.check_raises "worker 1's exception" (Failure "worker 1, stage 0") (fun () ->
      Osort.Driver.run_parallel net ~domains:2 ~make_exchange);
  Alcotest.(check int) "worker 0 stops after stage 0" 1 !stages

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
    QCheck_alcotest.to_alcotest qcheck_bitonic_sorts_random;
    QCheck_alcotest.to_alcotest qcheck_oem_sorts_random;
    QCheck_alcotest.to_alcotest qcheck_network_is_permutation;
  ]
