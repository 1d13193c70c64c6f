(* KS test and summary statistics. *)

let test_ks_statistic_identical () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "D = 0 on identical" 0.0 (Stats.Ks_test.statistic a a)

let test_ks_statistic_disjoint () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 10.0; 20.0; 30.0 |] in
  Alcotest.(check (float 1e-9)) "D = 1 on disjoint" 1.0 (Stats.Ks_test.statistic a b)

let test_ks_pvalue_same_distribution () =
  (* Two samples from one uniform distribution: p should be large. *)
  let rng = Crypto.Rng.create 8 in
  let draw () = Array.init 100 (fun _ -> float_of_int (Crypto.Rng.int rng 10000)) in
  let p = Stats.Ks_test.p_value (draw ()) (draw ()) in
  Alcotest.(check bool) (Printf.sprintf "p = %.3f >= 0.05" p) true (p >= 0.05)

let test_ks_pvalue_different_distributions () =
  let rng = Crypto.Rng.create 9 in
  let a = Array.init 200 (fun _ -> float_of_int (Crypto.Rng.int rng 1000)) in
  let b = Array.init 200 (fun _ -> 2000.0 +. float_of_int (Crypto.Rng.int rng 1000)) in
  let p = Stats.Ks_test.p_value a b in
  Alcotest.(check bool) (Printf.sprintf "p = %.6f < 0.05" p) true (p < 0.05)

let test_ks_pvalue_shifted_slightly () =
  (* A large shift relative to spread must be detected at n = 300. *)
  let rng = Crypto.Rng.create 10 in
  let a = Array.init 300 (fun _ -> float_of_int (Crypto.Rng.int rng 100)) in
  let b = Array.init 300 (fun _ -> 50.0 +. float_of_int (Crypto.Rng.int rng 100)) in
  Alcotest.(check bool) "detected" true (Stats.Ks_test.p_value a b < 0.05)

let test_ks_monotone_in_d () =
  let base = Array.init 50 float_of_int in
  let shift k = Array.map (fun x -> x +. k) base in
  let p1 = Stats.Ks_test.p_value base (shift 1.0) in
  let p2 = Stats.Ks_test.p_value base (shift 25.0) in
  Alcotest.(check bool) "bigger shift, smaller p" true (p2 < p1)

let test_ks_empty_rejected () =
  Alcotest.(check bool) "raises" true
    (match Stats.Ks_test.statistic [||] [| 1.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_summary () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean a);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.Summary.median a);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Summary.min a);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Summary.max a);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) (Stats.Summary.stddev a);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.Summary.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "p25" 1.75 (Stats.Summary.quantile a 0.25);
  Alcotest.(check (float 1e-9)) "p75" 3.25 (Stats.Summary.quantile [| 4.0; 2.0; 3.0; 1.0 |] 0.75);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Summary.quantile a 0.);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.Summary.quantile a 1.)

let qcheck_ks_symmetric =
  QCheck.Test.make ~name:"KS statistic is symmetric" ~count:100
    QCheck.(pair (array_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0))
              (array_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0)))
    (fun (a, b) ->
      Float.abs (Stats.Ks_test.statistic a b -. Stats.Ks_test.statistic b a) < 1e-9)

let qcheck_ks_bounded =
  QCheck.Test.make ~name:"KS statistic in [0,1], p in [0,1]" ~count:100
    QCheck.(pair (array_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0))
              (array_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0)))
    (fun (a, b) ->
      let d = Stats.Ks_test.statistic a b and p = Stats.Ks_test.p_value a b in
      d >= 0.0 && d <= 1.0 && p >= 0.0 && p <= 1.0)

let suite =
  [
    Alcotest.test_case "KS D identical" `Quick test_ks_statistic_identical;
    Alcotest.test_case "KS D disjoint" `Quick test_ks_statistic_disjoint;
    Alcotest.test_case "KS p same distribution" `Quick test_ks_pvalue_same_distribution;
    Alcotest.test_case "KS p different distributions" `Quick test_ks_pvalue_different_distributions;
    Alcotest.test_case "KS p shifted" `Quick test_ks_pvalue_shifted_slightly;
    Alcotest.test_case "KS monotone" `Quick test_ks_monotone_in_d;
    Alcotest.test_case "KS empty rejected" `Quick test_ks_empty_rejected;
    Alcotest.test_case "summary statistics" `Quick test_summary;
    QCheck_alcotest.to_alcotest qcheck_ks_symmetric;
    QCheck_alcotest.to_alcotest qcheck_ks_bounded;
  ]
