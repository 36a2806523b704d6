(* Tests for webdep_emd: distributions, the transportation solver, the
   centralization score, and the f-divergence ablation claims. *)

open Webdep_emd

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Dist ---------------------------------------------------------------- *)

let test_dist_of_counts () =
  let d = Dist.of_counts [| 3; 1; 0; 2 |] in
  Alcotest.(check int) "zero dropped" 3 (Dist.size d);
  check_float "total" 6.0 (Dist.total d)

let test_dist_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Dist: negative mass") (fun () ->
      ignore (Dist.of_counts [| 1; -1 |]));
  Alcotest.check_raises "all zero" (Invalid_argument "Dist: no positive mass") (fun () ->
      ignore (Dist.of_counts [| 0; 0 |]))

let test_dist_sorted () =
  let d = Dist.of_counts [| 1; 5; 3 |] in
  Alcotest.(check (array (float 1e-9))) "sorted desc" [| 5.0; 3.0; 1.0 |] (Dist.sorted_desc d)

let test_dist_shares () =
  let d = Dist.of_counts [| 1; 3 |] in
  let shares = Dist.shares d in
  check_float "share sum" 1.0 (Array.fold_left ( +. ) 0.0 shares)

let test_dist_top_share () =
  let d = Dist.of_counts [| 6; 3; 1 |] in
  check_float "top-1" 0.6 (Dist.top_share d 1);
  check_float "top-2" 0.9 (Dist.top_share d 2);
  check_float "top-5 beyond size" 1.0 (Dist.top_share d 5)

let test_uniform_reference () =
  let r = Dist.uniform_reference 10 in
  Alcotest.(check int) "size" 10 (Dist.size r);
  check_float "total" 10.0 (Dist.total r)

(* --- Transport ------------------------------------------------------------ *)

let test_transport_identity () =
  let supply = [| 2.0; 3.0 |] in
  let cost i j = if i = j then 0.0 else 1.0 in
  let { Transport.work; _ } = Transport.solve ~supply ~demand:supply ~cost in
  check_float "zero work" 0.0 work

let test_transport_simple_move () =
  let supply = [| 5.0; 0.0 |] and demand = [| 0.0; 5.0 |] in
  let cost i j = Float.abs (float_of_int (i - j)) *. 2.0 in
  let { Transport.work; _ } = Transport.solve ~supply ~demand ~cost in
  check_float "work = 5 * 2" 10.0 work

let test_transport_exhausts_cheap_first () =
  let supply = [| 4.0 |] and demand = [| 2.0; 2.0 |] in
  let cost _ j = if j = 0 then 1.0 else 10.0 in
  let { Transport.work; flows } = Transport.solve ~supply ~demand ~cost in
  check_float "work" ((2.0 *. 1.0) +. (2.0 *. 10.0)) work;
  Alcotest.(check int) "two flows" 2 (List.length flows)

let test_transport_1d_matches_cdf_formula () =
  (* For 1-D distributions with |i−j| ground distance, optimal work equals
     the L1 distance between CDFs. *)
  let supply = [| 3.0; 1.0; 2.0 |] and demand = [| 1.0; 2.0; 3.0 |] in
  let cost i j = Float.abs (float_of_int (i - j)) in
  let { Transport.work; _ } = Transport.solve ~supply ~demand ~cost in
  check_float "cdf identity" 3.0 work

let test_transport_unbalanced_raises () =
  Alcotest.check_raises "unbalanced"
    (Invalid_argument "Transport.solve: unbalanced supply and demand") (fun () ->
      ignore (Transport.solve ~supply:[| 1.0 |] ~demand:[| 2.0 |] ~cost:(fun _ _ -> 1.0)))

let test_transport_negative_raises () =
  Alcotest.check_raises "negative supply"
    (Invalid_argument "Transport.solve: negative supply") (fun () ->
      ignore (Transport.solve ~supply:[| -1.0; 2.0 |] ~demand:[| 1.0 |] ~cost:(fun _ _ -> 1.0)))

let test_transport_flow_conservation () =
  let supply = [| 3.0; 2.0; 5.0 |] and demand = [| 4.0; 6.0 |] in
  let cost i j = float_of_int (((i * 3) + j) mod 5) in
  let { Transport.flows; _ } = Transport.solve ~supply ~demand ~cost in
  let out = Array.make 3 0.0 and into = Array.make 2 0.0 in
  List.iter
    (fun (i, j, f) ->
      out.(i) <- out.(i) +. f;
      into.(j) <- into.(j) +. f)
    flows;
  Array.iteri (fun i s -> check_float ~eps:1e-6 (Printf.sprintf "out %d" i) supply.(i) s) out;
  Array.iteri (fun j d -> check_float ~eps:1e-6 (Printf.sprintf "in %d" j) demand.(j) d) into

let test_solver_matches_reference_shapes () =
  (* Degenerate shapes the general property may not hit: single supplier,
     single demand bucket, and the 1x1 trivial instance. *)
  let cost i j = float_of_int (((i * 7) + (j * 13)) mod 8) /. 8.0 in
  List.iter
    (fun (supply, demand) ->
      let a = Transport.solve ~supply ~demand ~cost in
      let b = Transport.solve_reference ~supply ~demand ~cost in
      check_float ~eps:1e-9 "work matches reference" b.Transport.work a.Transport.work)
    [
      ([| 12.0 |], [| 3.0; 4.0; 5.0 |]);
      ([| 3.0; 4.0; 5.0 |], [| 12.0 |]);
      ([| 2.0; 2.0; 2.0; 2.0 |], [| 8.0 |]);
      ([| 10.0 |], [| 10.0 |]);
    ]

let prop_solver_matches_reference =
  (* Differential test of the Dijkstra-with-potentials solver against the
     Bellman–Ford oracle: integer masses and dyadic-eighth costs (some
     negative, to exercise the potential seeding) keep the arithmetic
     exact, so the optima must agree to well under 1e-9. *)
  QCheck.Test.make ~name:"Dijkstra+potentials = Bellman-Ford reference" ~count:120
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 7) (int_range 1 9))
        (int_range 1 7) (int_range 0 1000))
    (fun (supply_counts, m, salt) ->
      let supply = Array.of_list (List.map float_of_int supply_counts) in
      let total = List.fold_left ( + ) 0 supply_counts in
      let q = total / m and r = total mod m in
      let demand = Array.init m (fun j -> float_of_int (q + if j < r then 1 else 0)) in
      let cost i j = float_of_int ((((i * 31) + (j * 17) + salt) mod 16) - 2) /. 8.0 in
      let a = Transport.solve ~supply ~demand ~cost in
      let b = Transport.solve_reference ~supply ~demand ~cost in
      (* The fast solver's flows must also be a feasible transport plan. *)
      let out = Array.make (Array.length supply) 0.0 in
      let into = Array.make m 0.0 in
      List.iter
        (fun (i, j, f) ->
          out.(i) <- out.(i) +. f;
          into.(j) <- into.(j) +. f)
        a.Transport.flows;
      Array.for_all2 (fun s o -> Float.abs (s -. o) < 1e-6) supply out
      && Array.for_all2 (fun d i -> Float.abs (d -. i) < 1e-6) demand into
      && Float.abs (a.Transport.work -. b.Transport.work) < 1e-9)

let prop_transport_matches_cdf_1d =
  QCheck.Test.make ~name:"1-D transport equals CDF distance" ~count:60
    QCheck.(
      pair
        (list_of_size (Gen.int_range 2 6) (int_range 0 9))
        (list_of_size (Gen.int_range 2 6) (int_range 0 9)))
    (fun (a, b) ->
      let a = Array.of_list (List.map float_of_int a) in
      let b = Array.of_list (List.map float_of_int b) in
      let sa = Array.fold_left ( +. ) 0.0 a and sb = Array.fold_left ( +. ) 0.0 b in
      QCheck.assume (sa > 0.0 && sb > 0.0);
      let b = Array.map (fun x -> x *. sa /. sb) b in
      let n = max (Array.length a) (Array.length b) in
      let pad v = Array.init n (fun i -> if i < Array.length v then v.(i) else 0.0) in
      let a = pad a and b = pad b in
      let cost i j = Float.abs (float_of_int (i - j)) in
      let { Transport.work; _ } = Transport.solve ~supply:a ~demand:b ~cost in
      let cdf = ref 0.0 and expected = ref 0.0 in
      for i = 0 to n - 2 do
        cdf := !cdf +. a.(i) -. b.(i);
        expected := !expected +. Float.abs !cdf
      done;
      Float.abs (work -. !expected) < 1e-6)

(* --- Centralization -------------------------------------------------------- *)

let test_score_single_provider () =
  let c = 100 in
  let s = Centralization.score (Dist.of_counts [| c |]) in
  check_float "upper bound" (Centralization.upper_bound ~c) s

let test_score_fully_decentralized () =
  let s = Centralization.score (Dist.uniform_reference 50) in
  check_float ~eps:1e-12 "zero" 0.0 s

let test_score_formula () =
  (* Hand-computed: counts (3,1), C=4: HHI = 9/16 + 1/16 = 0.625. *)
  check_float "hand computed" 0.375 (Centralization.score_of_counts [| 3; 1 |])

let test_score_shares () =
  let s = Centralization.score_of_shares_c ~c:10_000 [| 0.5; 0.5 |] in
  check_float "two equal" (0.5 -. 0.0001) s

let test_score_shares_invalid () =
  Alcotest.check_raises "bad shares"
    (Invalid_argument "Centralization.score_of_shares: shares must sum to 1") (fun () ->
      ignore (Centralization.score_of_shares [| 0.5; 0.2 |]));
  Alcotest.check_raises "NaN share"
    (Invalid_argument "Centralization.score_of_shares: shares must sum to 1") (fun () ->
      ignore (Centralization.score_of_shares [| nan |]))

let test_hhi_relationship () =
  let d = Dist.of_counts [| 5; 3; 2 |] in
  check_float "hhi = s + 1/c" (Centralization.score d +. 0.1) (Centralization.hhi d)

let test_doj_bands () =
  Alcotest.(check string) "competitive" "competitive"
    (Centralization.doj_band_to_string (Centralization.doj_band 0.05));
  Alcotest.(check string) "moderate" "moderately concentrated"
    (Centralization.doj_band_to_string (Centralization.doj_band 0.15));
  Alcotest.(check string) "high" "highly concentrated"
    (Centralization.doj_band_to_string (Centralization.doj_band 0.3))

let test_closed_form_equals_transport_small () =
  (* Appendix A: the closed form is the transportation optimum — checked
     through both the default fast path and the general solver. *)
  List.iter
    (fun counts ->
      let d = Dist.of_counts counts in
      let closed = Centralization.score d in
      let name =
        Printf.sprintf "closed form for %s"
          (String.concat "," (List.map string_of_int (Array.to_list counts)))
      in
      check_float ~eps:1e-6 name closed (Centralization.via_transport d);
      check_float ~eps:1e-6 (name ^ " (solver)") closed
        (Centralization.via_transport ~fast:false d))
    [ [| 5; 3; 2 |]; [| 10 |]; [| 1; 1; 1; 1 |]; [| 7; 2; 1 |]; [| 4; 4; 4 |] ]

let prop_closed_form_equals_transport =
  QCheck.Test.make ~name:"S closed form = transportation optimum" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 1 8))
    (fun counts ->
      let counts = Array.of_list counts in
      let d = Dist.of_counts counts in
      Float.abs (Centralization.score d -. Centralization.via_transport d) < 1e-6)

let prop_score_bounds =
  QCheck.Test.make ~name:"0 <= S <= 1 - 1/C" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 1 100))
    (fun counts ->
      let counts = Array.of_list counts in
      let d = Dist.of_counts counts in
      let c = int_of_float (Dist.total d) in
      let s = Centralization.score d in
      s >= -1e-12 && s <= Centralization.upper_bound ~c +. 1e-12)

let prop_merging_increases_score =
  QCheck.Test.make ~name:"merging providers increases S" ~count:100
    QCheck.(list_of_size (Gen.int_range 3 20) (int_range 1 50))
    (fun counts ->
      let a = Array.of_list counts in
      let merged =
        Array.append [| a.(0) + a.(1) |] (Array.sub a 2 (Array.length a - 2))
      in
      Centralization.score_of_counts merged > Centralization.score_of_counts a -. 1e-12)

let prop_score_scale_invariant =
  QCheck.Test.make ~name:"S is share-determined up to 1/C" ~count:100
    QCheck.(pair (int_range 2 5) (list_of_size (Gen.int_range 2 10) (int_range 1 20)))
    (fun (k, counts) ->
      let a = Array.of_list counts in
      let c = Array.fold_left ( + ) 0 a in
      let scaled = Array.map (fun x -> x * k) a in
      let s1 = Centralization.score_of_counts a in
      let s2 = Centralization.score_of_counts scaled in
      let expected_shift = (1.0 /. float_of_int c) -. (1.0 /. float_of_int (c * k)) in
      Float.abs (s2 -. (s1 +. expected_shift)) < 1e-9)

let test_figure2_example () =
  (* Figure 2's worked example: two 10-site countries with scores 0.28
     and 0.32.  (5,3,2) gives HHI 0.38 → S 0.28; (6,2,1,1) gives
     HHI 0.42 → S 0.32. *)
  check_float ~eps:1e-9 "country A" 0.28 (Centralization.score_of_counts [| 5; 3; 2 |]);
  check_float ~eps:1e-9 "country B" 0.32 (Centralization.score_of_counts [| 6; 2; 1; 1 |]);
  Alcotest.(check bool) "B more centralized" true
    (Centralization.score_of_counts [| 6; 2; 1; 1 |]
    > Centralization.score_of_counts [| 5; 3; 2 |])

let test_figure1_topn_blindspot () =
  (* §3.1: Azerbaijan and Hong Kong share a 59% top-5 share yet differ in
     S because the shares within the top five differ. *)
  let az = [| 42; 5; 4; 4; 4 |] (* 59 of 100 *) and hk = [| 33; 12; 5; 5; 4 |] in
  let pad counts = Array.append counts (Array.make 41 1) in
  let az = Dist.of_counts (pad az) and hk = Dist.of_counts (pad hk) in
  check_float ~eps:1e-9 "same top-5" (Dist.top_share az 5) (Dist.top_share hk 5);
  Alcotest.(check bool) "AZ more centralized" true
    (Centralization.score az > Centralization.score hk)

(* --- Divergence -------------------------------------------------------------- *)

let test_kl_identical () = check_float "zero" 0.0 (Divergence.kl [| 0.5; 0.5 |] [| 0.5; 0.5 |])

let test_kl_known () =
  check_float ~eps:1e-12 "ln 2" (log 2.0) (Divergence.kl [| 1.0; 0.0 |] [| 0.5; 0.5 |])

let test_kl_infinite_on_missing_support () =
  Alcotest.(check bool) "infinite" true (Divergence.kl [| 0.5; 0.5 |] [| 1.0; 0.0 |] = infinity)

let test_js_bounded () =
  let js = Divergence.jensen_shannon [| 1.0; 0.0 |] [| 0.0; 1.0 |] in
  check_float ~eps:1e-12 "max is ln 2" (log 2.0) js

let test_hellinger_disjoint () =
  check_float ~eps:1e-12 "disjoint = 1" 1.0 (Divergence.hellinger [| 1.0; 0.0 |] [| 0.0; 1.0 |])

let test_tv_half () =
  check_float "tv" 0.5 (Divergence.total_variation [| 1.0; 0.0 |] [| 0.5; 0.5 |])

let test_divergence_invalid () =
  Alcotest.check_raises "length" (Invalid_argument "Divergence: length mismatch") (fun () ->
      ignore (Divergence.kl [| 1.0 |] [| 0.5; 0.5 |]));
  Alcotest.check_raises "sum" (Invalid_argument "Divergence: probabilities must sum to 1")
    (fun () -> ignore (Divergence.kl [| 0.7; 0.7 |] [| 0.5; 0.5 |]))

let test_align () =
  let p, q = Divergence.align [| 1.0 |] [| 0.5; 0.5 |] in
  Alcotest.(check int) "p padded" 2 (Array.length p);
  check_float "pad value" 0.0 p.(1);
  Alcotest.(check int) "q kept" 2 (Array.length q)

(* The §3.1 design claim: f-divergences saturate on (nearly) disjoint
   distributions and thus cannot rank them, while S (EMD) can. *)
let test_fdivergence_saturation () =
  let obs1 = [| 0.9; 0.1 |] and obs2 = [| 0.6; 0.4 |] in
  let reference = [| 0.0; 0.0; 0.25; 0.25; 0.25; 0.25 |] in
  let pad v = fst (Divergence.align v reference) in
  check_float ~eps:1e-9 "hellinger saturates (1)" 1.0 (Divergence.hellinger (pad obs1) reference);
  check_float ~eps:1e-9 "hellinger saturates (2)" 1.0 (Divergence.hellinger (pad obs2) reference);
  check_float ~eps:1e-9 "tv saturates (1)" 1.0 (Divergence.total_variation (pad obs1) reference);
  check_float ~eps:1e-9 "tv saturates (2)" 1.0 (Divergence.total_variation (pad obs2) reference);
  let s1 = Centralization.score_of_counts [| 9; 1 |] in
  let s2 = Centralization.score_of_counts [| 6; 4 |] in
  Alcotest.(check bool) "S ranks them" true (s1 > s2)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "webdep_emd"
    [
      ( "dist",
        [
          Alcotest.test_case "of_counts" `Quick test_dist_of_counts;
          Alcotest.test_case "invalid" `Quick test_dist_invalid;
          Alcotest.test_case "sorted" `Quick test_dist_sorted;
          Alcotest.test_case "shares" `Quick test_dist_shares;
          Alcotest.test_case "top share" `Quick test_dist_top_share;
          Alcotest.test_case "uniform reference" `Quick test_uniform_reference;
        ] );
      ( "transport",
        [
          Alcotest.test_case "identity" `Quick test_transport_identity;
          Alcotest.test_case "simple move" `Quick test_transport_simple_move;
          Alcotest.test_case "exhausts cheap first" `Quick test_transport_exhausts_cheap_first;
          Alcotest.test_case "1d cdf identity" `Quick test_transport_1d_matches_cdf_formula;
          Alcotest.test_case "unbalanced raises" `Quick test_transport_unbalanced_raises;
          Alcotest.test_case "negative raises" `Quick test_transport_negative_raises;
          Alcotest.test_case "flow conservation" `Quick test_transport_flow_conservation;
          Alcotest.test_case "solver = reference (1xm, nx1)" `Quick
            test_solver_matches_reference_shapes;
          qtest prop_solver_matches_reference;
          qtest prop_transport_matches_cdf_1d;
        ] );
      ( "centralization",
        [
          Alcotest.test_case "single provider" `Quick test_score_single_provider;
          Alcotest.test_case "fully decentralized" `Quick test_score_fully_decentralized;
          Alcotest.test_case "formula" `Quick test_score_formula;
          Alcotest.test_case "shares" `Quick test_score_shares;
          Alcotest.test_case "shares invalid" `Quick test_score_shares_invalid;
          Alcotest.test_case "hhi relationship" `Quick test_hhi_relationship;
          Alcotest.test_case "doj bands" `Quick test_doj_bands;
          Alcotest.test_case "closed form = transport" `Quick test_closed_form_equals_transport_small;
          Alcotest.test_case "figure 2 example" `Quick test_figure2_example;
          Alcotest.test_case "figure 1 top-N blindspot" `Quick test_figure1_topn_blindspot;
          qtest prop_closed_form_equals_transport;
          qtest prop_score_bounds;
          qtest prop_merging_increases_score;
          qtest prop_score_scale_invariant;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "kl identical" `Quick test_kl_identical;
          Alcotest.test_case "kl known" `Quick test_kl_known;
          Alcotest.test_case "kl infinite" `Quick test_kl_infinite_on_missing_support;
          Alcotest.test_case "js bounded" `Quick test_js_bounded;
          Alcotest.test_case "hellinger disjoint" `Quick test_hellinger_disjoint;
          Alcotest.test_case "tv half" `Quick test_tv_half;
          Alcotest.test_case "invalid" `Quick test_divergence_invalid;
          Alcotest.test_case "align" `Quick test_align;
          Alcotest.test_case "f-divergence saturation (3.1)" `Quick test_fdivergence_saturation;
        ] );
    ]
