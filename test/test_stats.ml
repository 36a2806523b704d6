(* Unit and property tests for webdep_stats. *)

open Webdep_stats

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Rng --------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    if v < 0 || v >= 13 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "Rng.float out of bounds: %f" v
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  Alcotest.(check bool) "child differs from parent" true (c1 <> p1)

let test_rng_split_named_stable () =
  let mk () = Rng.split_named (Rng.create 11) "alpha" in
  Alcotest.(check int64) "same name, same stream" (Rng.bits64 (mk ())) (Rng.bits64 (mk ()))

let test_rng_split_named_distinct () =
  let parent = Rng.create 11 in
  let a = Rng.split_named parent "alpha" and b = Rng.split_named parent "beta" in
  Alcotest.(check bool) "different names differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_named_order_free () =
  let p1 = Rng.create 3 in
  let a_first = Rng.bits64 (Rng.split_named p1 "a") in
  let p2 = Rng.create 3 in
  ignore (Rng.bits64 (Rng.split_named p2 "b"));
  let a_second = Rng.bits64 (Rng.split_named p2 "a") in
  Alcotest.(check int64) "named split ignores sibling order" a_first a_second

let test_rng_uniformity () =
  (* Coarse chi-square-ish sanity: 10 buckets, 100k draws, each within
     20% of expectation. *)
  let rng = Rng.create 1234 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i k ->
      if k < 8_000 || k > 12_000 then Alcotest.failf "bucket %d skewed: %d" i k)
    buckets

(* --- Sample ------------------------------------------------------------ *)

let test_zipf_weights () =
  let w = Sample.zipf_weights ~s:1.0 4 in
  check_float "w0" 1.0 w.(0);
  check_float "w1" 0.5 w.(1);
  check_float "w3" 0.25 w.(3)

let test_zipf_probabilities_sum () =
  let p = Sample.zipf_probabilities ~s:1.3 100 in
  check_float ~eps:1e-9 "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p)

let test_zipf_monotone () =
  let p = Sample.zipf_probabilities ~s:0.8 50 in
  for i = 0 to 48 do
    if p.(i) < p.(i + 1) then Alcotest.fail "zipf probabilities must be nonincreasing"
  done

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Sample.zipf_weights: n must be positive")
    (fun () -> ignore (Sample.zipf_weights ~s:1.0 0))

let test_categorical_draw_distribution () =
  let rng = Rng.create 21 in
  let sampler = Sample.categorical [| 1.0; 3.0 |] in
  let n = 50_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Sample.draw sampler rng = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  if frac < 0.72 || frac > 0.78 then Alcotest.failf "expected ~0.75, got %f" frac

let test_categorical_zero_weight_never_drawn () =
  let rng = Rng.create 22 in
  let sampler = Sample.categorical [| 0.0; 1.0; 0.0 |] in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "only index 1" 1 (Sample.draw sampler rng)
  done

let test_categorical_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Sample.categorical: empty weights")
    (fun () -> ignore (Sample.categorical [||]));
  Alcotest.check_raises "negative" (Invalid_argument "Sample.categorical: negative weight")
    (fun () -> ignore (Sample.categorical [| 1.0; -0.5 |]));
  Alcotest.check_raises "all zero" (Invalid_argument "Sample.categorical: all weights zero")
    (fun () -> ignore (Sample.categorical [| 0.0; 0.0 |]))

let test_shuffle_permutation () =
  let rng = Rng.create 31 in
  let a = Array.init 100 Fun.id in
  Sample.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

let test_round_shares_exact_total () =
  let shares = [| 0.33; 0.33; 0.34 |] in
  let counts = Sample.round_shares ~total:100 shares in
  Alcotest.(check int) "sums to total" 100 (Array.fold_left ( + ) 0 counts)

let test_round_shares_proportional () =
  let counts = Sample.round_shares ~total:1000 [| 0.5; 0.3; 0.2 |] in
  Alcotest.(check (array int)) "exact split" [| 500; 300; 200 |] counts

let test_round_shares_remainder () =
  let counts = Sample.round_shares ~total:10 [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check int) "sums to 10" 10 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun k -> if k < 3 || k > 4 then Alcotest.fail "uneven largest-remainder") counts

let prop_round_shares_total =
  QCheck.Test.make ~name:"round_shares always sums to total" ~count:200
    QCheck.(pair (int_range 1 5000) (list_of_size (Gen.int_range 1 20) (float_range 0.01 10.0)))
    (fun (total, shares) ->
      let counts = Sample.round_shares ~total (Array.of_list shares) in
      Array.fold_left ( + ) 0 counts = total)

let prop_multinomial_total =
  QCheck.Test.make ~name:"multinomial counts sum to trials" ~count:50
    QCheck.(pair small_nat (int_range 1 10))
    (fun (trials, k) ->
      let rng = Rng.create (trials + k) in
      let probs = Array.make k (1.0 /. float_of_int k) in
      let counts = Sample.multinomial rng ~trials probs in
      Array.fold_left ( + ) 0 counts = trials)

(* --- Descriptive -------------------------------------------------------- *)

let test_mean () = check_float "mean" 2.5 (Descriptive.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_variance () =
  check_float "population variance" 1.25 (Descriptive.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_sample_variance () =
  check_float ~eps:1e-9 "sample variance" (5.0 /. 3.0)
    (Descriptive.sample_variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_median_odd () = check_float "odd median" 3.0 (Descriptive.median [| 5.0; 1.0; 3.0 |])

let test_median_even () =
  check_float "even median" 2.5 (Descriptive.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Descriptive.percentile xs 0.0);
  check_float "p50" 3.0 (Descriptive.percentile xs 50.0);
  check_float "p100" 5.0 (Descriptive.percentile xs 100.0);
  check_float "p25" 2.0 (Descriptive.percentile xs 25.0)

let test_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Descriptive.mean: empty input")
    (fun () -> ignore (Descriptive.mean [||]))

let test_normalize () =
  let p = Descriptive.normalize [| 2.0; 6.0 |] in
  check_float "first" 0.25 p.(0);
  check_float "second" 0.75 p.(1)

(* --- Special ------------------------------------------------------------ *)

let test_log_gamma_factorials () =
  (* Γ(n) = (n−1)! *)
  check_float ~eps:1e-9 "Γ(1)" 0.0 (Special.log_gamma 1.0);
  check_float ~eps:1e-9 "Γ(5)=24" (log 24.0) (Special.log_gamma 5.0);
  check_float ~eps:1e-8 "Γ(10)=362880" (log 362880.0) (Special.log_gamma 10.0)

let test_log_gamma_half () =
  check_float ~eps:1e-9 "Γ(1/2)=√π" (0.5 *. log Float.pi) (Special.log_gamma 0.5)

let test_incomplete_beta_bounds () =
  check_float "I_0" 0.0 (Special.incomplete_beta ~a:2.0 ~b:3.0 0.0);
  check_float "I_1" 1.0 (Special.incomplete_beta ~a:2.0 ~b:3.0 1.0)

let test_incomplete_beta_symmetry () =
  (* I_x(a,b) = 1 − I_{1−x}(b,a) *)
  let x = 0.3 and a = 2.5 and b = 1.5 in
  check_float ~eps:1e-10 "symmetry"
    (Special.incomplete_beta ~a ~b x)
    (1.0 -. Special.incomplete_beta ~a:b ~b:a (1.0 -. x))

let test_incomplete_beta_uniform () =
  (* I_x(1,1) = x *)
  check_float ~eps:1e-12 "I_x(1,1)" 0.42 (Special.incomplete_beta ~a:1.0 ~b:1.0 0.42)

let test_student_t_known () =
  (* Two-sided p for t=2.0, df=10 is ~0.0734 (standard tables). *)
  let p = Special.student_t_sf ~df:10.0 2.0 in
  if Float.abs (p -. 0.0734) > 0.002 then Alcotest.failf "t sf wrong: %f" p

let test_student_t_zero () =
  check_float ~eps:1e-12 "t=0 gives p=1" 1.0 (Special.student_t_sf ~df:5.0 0.0)

(* --- Correlation -------------------------------------------------------- *)

let test_pearson_perfect () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let r = Correlation.pearson xs ys in
  check_float ~eps:1e-12 "rho=1" 1.0 r.Correlation.rho;
  check_float ~eps:1e-9 "p=0" 0.0 r.Correlation.p_value

let test_pearson_anti () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> -.x) xs in
  check_float ~eps:1e-12 "rho=-1" (-1.0) (Correlation.pearson xs ys).Correlation.rho

let test_pearson_known_value () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] and ys = [| 2.0; 1.0; 4.0; 3.0; 5.0 |] in
  let r = Correlation.pearson xs ys in
  check_float ~eps:1e-9 "rho" 0.8 r.Correlation.rho

let test_pearson_constant_raises () =
  Alcotest.check_raises "constant" (Invalid_argument "Correlation.pearson: constant input")
    (fun () -> ignore (Correlation.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |]))

let test_spearman_monotone () =
  (* Any strictly monotone transform gives rho = 1. *)
  let xs = [| 1.0; 5.0; 2.0; 9.0; 4.0 |] in
  let ys = Array.map (fun x -> exp x) xs in
  check_float ~eps:1e-12 "rho=1" 1.0 (Correlation.spearman xs ys).Correlation.rho

let test_spearman_ties () =
  let xs = [| 1.0; 1.0; 2.0; 3.0 |] and ys = [| 1.0; 2.0; 3.0; 4.0 |] in
  let r = Correlation.spearman xs ys in
  if r.Correlation.rho <= 0.8 then Alcotest.failf "tied spearman too low: %f" r.Correlation.rho

let test_spearman_constant_raises () =
  Alcotest.check_raises "constant" (Invalid_argument "Correlation.spearman: constant input")
    (fun () -> ignore (Correlation.spearman [| 2.0; 2.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_fisher_interval () =
  let xs = Array.init 30 float_of_int in
  let ys = Array.map (fun x -> (2.0 *. x) +. Float.rem x 3.0) xs in
  let r = Correlation.pearson xs ys in
  let lo, hi = Correlation.fisher_interval r in
  Alcotest.(check bool) "brackets rho" true (lo <= r.Correlation.rho && r.Correlation.rho <= hi);
  Alcotest.(check bool) "proper interval" true (lo < hi && hi <= 1.0 && lo >= -1.0);
  let lo99, hi99 = Correlation.fisher_interval ~confidence:0.99 r in
  Alcotest.(check bool) "wider at 99%" true (lo99 <= lo && hi99 >= hi)

let test_permutation_p_agrees_with_t () =
  (* Strong linear relationship: both p-values tiny. *)
  let rng = Rng.create 61 in
  let xs = Array.init 40 float_of_int in
  let ys = Array.map (fun x -> (3.0 *. x) +. Float.rem x 5.0) xs in
  let p_perm = Correlation.permutation_p ~iterations:400 rng xs ys in
  Alcotest.(check bool) "significant" true (p_perm < 0.02);
  (* Independent noise: permutation p large. *)
  let rng2 = Rng.create 62 in
  let noise = Array.init 40 (fun _ -> Rng.float rng2 1.0) in
  let xs2 = Array.init 40 (fun _ -> Rng.float rng2 1.0) in
  let p_noise = Correlation.permutation_p ~iterations:400 rng xs2 noise in
  Alcotest.(check bool) "insignificant" true (p_noise > 0.05)

let test_fisher_interval_small_n () =
  let r = { Correlation.rho = 0.5; p_value = 0.5; n = 3 } in
  Alcotest.check_raises "n too small"
    (Invalid_argument "Correlation.fisher_interval: need n >= 4") (fun () ->
      ignore (Correlation.fisher_interval r))

let test_strength_bands () =
  Alcotest.(check string) "poor" "poor" Correlation.(strength_to_string (strength 0.1));
  Alcotest.(check string) "fair" "fair" Correlation.(strength_to_string (strength 0.45));
  Alcotest.(check string) "moderate" "moderate" Correlation.(strength_to_string (strength (-0.7)));
  Alcotest.(check string) "strong" "strong" Correlation.(strength_to_string (strength 0.9))

let prop_pearson_symmetric =
  QCheck.Test.make ~name:"pearson is symmetric" ~count:100
    QCheck.(list_of_size (Gen.int_range 3 40) (pair (float_range (-100.) 100.) (float_range (-100.) 100.)))
    (fun pairs ->
      let xs = Array.of_list (List.map fst pairs) in
      let ys = Array.of_list (List.map snd pairs) in
      try
        let a = (Correlation.pearson xs ys).Correlation.rho in
        let b = (Correlation.pearson ys xs).Correlation.rho in
        Float.abs (a -. b) < 1e-9
      with Invalid_argument _ -> QCheck.assume_fail ())

let prop_pearson_bounded =
  QCheck.Test.make ~name:"pearson in [-1,1]" ~count:200
    QCheck.(list_of_size (Gen.int_range 3 40) (pair (float_range (-1000.) 1000.) (float_range (-1000.) 1000.)))
    (fun pairs ->
      let xs = Array.of_list (List.map fst pairs) in
      let ys = Array.of_list (List.map snd pairs) in
      try
        let r = (Correlation.pearson xs ys).Correlation.rho in
        r >= -1.0 && r <= 1.0
      with Invalid_argument _ -> QCheck.assume_fail ())

let test_normal_moments () =
  let rng = Rng.create 51 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Sample.normal rng ~mean:3.0 ~stddev:2.0) in
  let m = Descriptive.mean xs and sd = Descriptive.stddev xs in
  if Float.abs (m -. 3.0) > 0.05 then Alcotest.failf "mean %f" m;
  if Float.abs (sd -. 2.0) > 0.05 then Alcotest.failf "stddev %f" sd

let test_normal_invalid () =
  let rng = Rng.create 52 in
  Alcotest.check_raises "negative stddev" (Invalid_argument "Sample.normal: negative stddev")
    (fun () -> ignore (Sample.normal rng ~mean:0.0 ~stddev:(-1.0)))

let test_log_normal_positive () =
  let rng = Rng.create 53 in
  for _ = 1 to 1000 do
    if Sample.log_normal rng ~mu:2.0 ~sigma:1.0 <= 0.0 then Alcotest.fail "must be positive"
  done

(* --- Bootstrap ------------------------------------------------------------ *)

let test_resample_same_length_and_support () =
  let rng = Rng.create 41 in
  let data = Array.init 50 float_of_int in
  let r = Bootstrap.resample rng data in
  Alcotest.(check int) "length" 50 (Array.length r);
  Array.iter (fun x -> if x < 0.0 || x > 49.0 then Alcotest.fail "outside support") r

let test_bootstrap_interval_brackets_mean () =
  let rng = Rng.create 42 in
  let data = Array.init 200 (fun i -> float_of_int (i mod 10)) in
  let lo, hi = Bootstrap.percentile_interval rng ~statistic:Descriptive.mean data in
  let m = Descriptive.mean data in
  Alcotest.(check bool) "brackets mean" true (lo <= m && m <= hi);
  Alcotest.(check bool) "tight for 200 points" true (hi -. lo < 1.5)

let test_bootstrap_interval_narrows_with_n () =
  let width n =
    let rng = Rng.create 43 in
    let data = Array.init n (fun i -> float_of_int (i mod 10)) in
    let lo, hi = Bootstrap.percentile_interval rng ~statistic:Descriptive.mean data in
    hi -. lo
  in
  Alcotest.(check bool) "more data, tighter CI" true (width 1000 < width 50)

let test_bootstrap_invalid () =
  let rng = Rng.create 44 in
  Alcotest.check_raises "empty" (Invalid_argument "Bootstrap.percentile_interval: empty data")
    (fun () -> ignore (Bootstrap.percentile_interval rng ~statistic:Descriptive.mean [||]));
  Alcotest.check_raises "iterations"
    (Invalid_argument "Bootstrap.percentile_interval: too few iterations") (fun () ->
      ignore
        (Bootstrap.percentile_interval ~iterations:3 rng ~statistic:Descriptive.mean [| 1.0 |]))

let test_bootstrap_standard_error () =
  let rng = Rng.create 45 in
  let data = Array.init 500 (fun i -> float_of_int (i mod 7)) in
  let se = Bootstrap.standard_error rng ~statistic:Descriptive.mean data in
  (* SE of the mean ~ sd/sqrt(n) = 2/22.4 ~ 0.09. *)
  Alcotest.(check bool) "plausible" true (se > 0.03 && se < 0.2)

(* --- Similarity ---------------------------------------------------------- *)

let test_jaccard_identical () =
  check_float "identical" 1.0 (Similarity.jaccard_strings [ "a"; "b" ] [ "b"; "a" ])

let test_jaccard_disjoint () =
  check_float "disjoint" 0.0 (Similarity.jaccard_strings [ "a" ] [ "b" ])

let test_jaccard_partial () =
  check_float "half" (1.0 /. 3.0) (Similarity.jaccard_strings [ "a"; "b" ] [ "b"; "c" ])

let test_jaccard_empty () = check_float "both empty" 1.0 (Similarity.jaccard_strings [] [])

let test_jaccard_duplicates_ignored () =
  check_float "duplicates" 1.0 (Similarity.jaccard_strings [ "a"; "a" ] [ "a" ])

let test_overlap () =
  Alcotest.(check int) "overlap" 2 (Similarity.overlap [ "a"; "b"; "c" ] [ "b"; "c"; "d" ])

(* --- Histogram ----------------------------------------------------------- *)

let test_histogram_counts () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 [| 0.1; 0.3; 0.6; 0.9; 0.95 |] in
  Alcotest.(check (array int)) "bins" [| 1; 1; 1; 2 |] h.Histogram.counts

let test_histogram_clamps () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 [| -5.0; 5.0 |] in
  Alcotest.(check (array int)) "clamped" [| 1; 1 |] h.Histogram.counts

let test_histogram_total () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:3 (Array.make 17 0.5) in
  Alcotest.(check int) "total" 17 (Histogram.total h)

let test_histogram_edges () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 [| 0.5 |] in
  let edges = Histogram.bin_edges h in
  check_float "left edge" 0.0 (fst edges.(0));
  check_float "right edge" 1.0 (snd edges.(1))

let test_ecdf () =
  let cdf = Histogram.ecdf [| 3.0; 1.0; 2.0 |] in
  check_float "first x" 1.0 (fst cdf.(0));
  check_float "first F" (1.0 /. 3.0) (snd cdf.(0));
  check_float "last F" 1.0 (snd cdf.(2))

(* --- Scaling ------------------------------------------------------------- *)

let test_min_max () =
  let s = Scaling.min_max [| 2.0; 4.0; 6.0 |] in
  Alcotest.(check (array (float 1e-9))) "scaled" [| 0.0; 0.5; 1.0 |] s

let test_min_max_constant () =
  Alcotest.(check (array (float 1e-9))) "constant maps to 0" [| 0.0; 0.0 |]
    (Scaling.min_max [| 5.0; 5.0 |])

let test_min_max_columns () =
  let m = Scaling.min_max_columns [| [| 0.0; 10.0 |]; [| 10.0; 20.0 |] |] in
  check_float "r0c0" 0.0 m.(0).(0);
  check_float "r0c1" 0.0 m.(0).(1);
  check_float "r1c0" 1.0 m.(1).(0);
  check_float "r1c1" 1.0 m.(1).(1)

let test_z_score () =
  let z = Scaling.z_score [| 1.0; 3.0 |] in
  check_float "z0" (-1.0) z.(0);
  check_float "z1" 1.0 z.(1)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "webdep_stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split_named stable" `Quick test_rng_split_named_stable;
          Alcotest.test_case "split_named distinct" `Quick test_rng_split_named_distinct;
          Alcotest.test_case "split_named order-free" `Quick test_rng_split_named_order_free;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        ] );
      ( "sample",
        [
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
          Alcotest.test_case "zipf probabilities sum" `Quick test_zipf_probabilities_sum;
          Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "zipf invalid" `Quick test_zipf_invalid;
          Alcotest.test_case "categorical distribution" `Quick test_categorical_draw_distribution;
          Alcotest.test_case "categorical zero weight" `Quick test_categorical_zero_weight_never_drawn;
          Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "round_shares total" `Quick test_round_shares_exact_total;
          Alcotest.test_case "round_shares proportional" `Quick test_round_shares_proportional;
          Alcotest.test_case "round_shares remainder" `Quick test_round_shares_remainder;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "normal invalid" `Quick test_normal_invalid;
          Alcotest.test_case "log normal positive" `Quick test_log_normal_positive;
          qtest prop_round_shares_total;
          qtest prop_multinomial_total;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "sample variance" `Quick test_sample_variance;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "normalize" `Quick test_normalize;
        ] );
      ( "special",
        [
          Alcotest.test_case "log_gamma factorials" `Quick test_log_gamma_factorials;
          Alcotest.test_case "log_gamma half" `Quick test_log_gamma_half;
          Alcotest.test_case "incomplete beta bounds" `Quick test_incomplete_beta_bounds;
          Alcotest.test_case "incomplete beta symmetry" `Quick test_incomplete_beta_symmetry;
          Alcotest.test_case "incomplete beta uniform" `Quick test_incomplete_beta_uniform;
          Alcotest.test_case "student t known" `Quick test_student_t_known;
          Alcotest.test_case "student t zero" `Quick test_student_t_zero;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "pearson perfect" `Quick test_pearson_perfect;
          Alcotest.test_case "pearson anti" `Quick test_pearson_anti;
          Alcotest.test_case "pearson known" `Quick test_pearson_known_value;
          Alcotest.test_case "pearson constant raises" `Quick test_pearson_constant_raises;
          Alcotest.test_case "spearman monotone" `Quick test_spearman_monotone;
          Alcotest.test_case "spearman ties" `Quick test_spearman_ties;
          Alcotest.test_case "spearman constant raises" `Quick test_spearman_constant_raises;
          Alcotest.test_case "strength bands" `Quick test_strength_bands;
          Alcotest.test_case "fisher interval" `Quick test_fisher_interval;
          Alcotest.test_case "fisher small n" `Quick test_fisher_interval_small_n;
          Alcotest.test_case "permutation p" `Quick test_permutation_p_agrees_with_t;
          qtest prop_pearson_symmetric;
          qtest prop_pearson_bounded;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "resample" `Quick test_resample_same_length_and_support;
          Alcotest.test_case "interval brackets mean" `Quick test_bootstrap_interval_brackets_mean;
          Alcotest.test_case "narrows with n" `Quick test_bootstrap_interval_narrows_with_n;
          Alcotest.test_case "invalid" `Quick test_bootstrap_invalid;
          Alcotest.test_case "standard error" `Quick test_bootstrap_standard_error;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "jaccard identical" `Quick test_jaccard_identical;
          Alcotest.test_case "jaccard disjoint" `Quick test_jaccard_disjoint;
          Alcotest.test_case "jaccard partial" `Quick test_jaccard_partial;
          Alcotest.test_case "jaccard empty" `Quick test_jaccard_empty;
          Alcotest.test_case "jaccard duplicates" `Quick test_jaccard_duplicates_ignored;
          Alcotest.test_case "overlap" `Quick test_overlap;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "clamps" `Quick test_histogram_clamps;
          Alcotest.test_case "total" `Quick test_histogram_total;
          Alcotest.test_case "edges" `Quick test_histogram_edges;
          Alcotest.test_case "ecdf" `Quick test_ecdf;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "min_max constant" `Quick test_min_max_constant;
          Alcotest.test_case "min_max columns" `Quick test_min_max_columns;
          Alcotest.test_case "z_score" `Quick test_z_score;
        ] );
    ]
