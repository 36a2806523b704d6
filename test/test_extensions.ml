(* Tests for the extension modules: baseline concentration indices, the
   §3.2 EMD customizations, TLD categorization, language analysis,
   redundancy, and CSV export. *)

module Dist = Webdep_emd.Dist
module B = Webdep_emd.Baselines
module Ext = Webdep_emd.Extensions
module D = Webdep.Dataset

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Baselines ---------------------------------------------------------- *)

let test_gini_uniform () =
  check_float "equal providers" 0.0 (B.gini (Dist.of_counts [| 5; 5; 5; 5 |]))

let test_gini_blind_to_provider_count () =
  (* The design flaw S avoids: Gini cannot tell 2 equal providers from
     2000 equal providers. *)
  let two = B.gini (Dist.of_counts [| 10; 10 |]) in
  let many = B.gini (Dist.of_counts (Array.make 200 10)) in
  check_float "both zero" two many;
  let s_two = Webdep_emd.Centralization.score (Dist.of_counts [| 10; 10 |]) in
  let s_many = Webdep_emd.Centralization.score (Dist.of_counts (Array.make 200 10)) in
  Alcotest.(check bool) "S separates them" true (s_two > s_many +. 0.4)

let test_gini_concentrated () =
  let g = B.gini (Dist.of_counts [| 97; 1; 1; 1 |]) in
  Alcotest.(check bool) "high" true (g > 0.7)

let test_shannon_evenness () =
  check_float "even" 1.0 (B.shannon_evenness (Dist.of_counts [| 3; 3; 3 |]));
  Alcotest.(check bool) "skewed lower" true
    (B.shannon_evenness (Dist.of_counts [| 98; 1; 1 |]) < 0.2);
  check_float "single provider" 1.0 (B.shannon_evenness (Dist.of_counts [| 7 |]))

let test_effective_providers () =
  check_float "4 equal" 4.0 (B.effective_providers (Dist.of_counts [| 5; 5; 5; 5 |]));
  check_float "monopoly" 1.0 (B.effective_providers (Dist.of_counts [| 9 |]))

let test_gini_single_provider () =
  check_float "monopoly has zero inequality among providers" 0.0
    (B.gini (Dist.of_counts [| 10 |]))

let test_effective_providers_uneven () =
  (* counts (8,1,1): HHI = 0.66 -> ~1.5 effective providers. *)
  let e = B.effective_providers (Dist.of_counts [| 8; 1; 1 |]) in
  if Float.abs (e -. (1.0 /. 0.66)) > 1e-9 then Alcotest.failf "effective %f" e

let test_topn_disagreement () =
  (* Two distributions with identical top-5 but different S, plus one
     clearly different: the comparator must detect one tie. *)
  let az = Dist.of_counts (Array.append [| 42; 5; 4; 4; 4 |] (Array.make 41 1)) in
  let hk = Dist.of_counts (Array.append [| 33; 12; 5; 5; 4 |] (Array.make 41 1)) in
  let th = Dist.of_counts (Array.append [| 60; 5; 3; 2; 2 |] (Array.make 28 1)) in
  let r = B.compare_with_top_n [ ("AZ", az); ("HK", hk); ("TH", th) ] in
  Alcotest.(check int) "three pairs" 3 r.B.pairs_compared;
  Alcotest.(check bool) "AZ/HK tie detected" true (r.B.topn_ties_s_separates >= 1)

(* --- Extensions --------------------------------------------------------- *)

let test_weighted_score_reduces_to_s () =
  (* Unit weights recover the ordinary score. *)
  let groups = [ Array.make 3 1.0; Array.make 1 1.0 ] in
  check_float "matches closed form"
    (Webdep_emd.Centralization.score_of_counts [| 3; 1 |])
    (Ext.weighted_score groups)

let test_weighted_score_traffic () =
  (* One provider with one heavy site vs many light sites elsewhere:
     weighting shifts the score up relative to unweighted counts. *)
  let heavy = [ [| 100.0 |]; [| 1.0 |]; [| 1.0 |] ] in
  let s_w = Ext.weighted_score heavy in
  (* All mass already in single-site providers: reference = observed on
     the heavy bucket, so only cross terms remain tiny. *)
  Alcotest.(check bool) "bounded" true (s_w >= 0.0 && s_w < 1.0);
  (* Splitting the heavy site's provider into two sites of 50 increases
     concentration of provider mass vs reference. *)
  let merged = Ext.weighted_score [ [| 50.0; 50.0 |]; [| 1.0 |]; [| 1.0 |] ] in
  Alcotest.(check bool) "two-site provider more centralized" true (merged > s_w)

let test_weighted_score_invalid () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Extensions.weighted_score: negative weight") (fun () ->
      ignore (Ext.weighted_score [ [| -1.0 |] ]));
  Alcotest.check_raises "zero"
    (Invalid_argument "Extensions.weighted_score: zero total weight") (fun () ->
      ignore (Ext.weighted_score [ [| 0.0 |] ]))

let test_pairwise_identity () =
  let d = Dist.of_counts [| 5; 3; 2 |] in
  check_float ~eps:1e-9 "self distance" 0.0 (Ext.pairwise d d)

let test_pairwise_scale_free () =
  (* Same shape at different totals compares as (near) zero. *)
  let a = Dist.of_counts [| 6; 3; 1 |] in
  let b = Dist.of_counts [| 60; 30; 10 |] in
  check_float ~eps:1e-9 "scaled twin" 0.0 (Ext.pairwise a b)

let test_pairwise_orders_by_difference () =
  let base = Dist.of_counts [| 5; 3; 2 |] in
  let near = Dist.of_counts [| 6; 3; 1 |] in
  let far = Dist.of_counts [| 10 |] in
  Alcotest.(check bool) "far > near" true (Ext.pairwise base far > Ext.pairwise base near)

let test_sorted_share_l1 () =
  let a = Dist.of_counts [| 5; 5 |] and b = Dist.of_counts [| 10 |] in
  check_float "half" 0.5 (Ext.sorted_share_l1 a b);
  check_float "self" 0.0 (Ext.sorted_share_l1 a a)

let test_pairwise_different_sizes () =
  (* Distributions over different provider counts still compare. *)
  let a = Dist.of_counts [| 4; 3; 2; 1 |] and b = Dist.of_counts [| 10 |] in
  let d = Ext.pairwise a b in
  Alcotest.(check bool) "positive" true (d > 0.0);
  (* Symmetric up to the mass rescaling. *)
  check_float ~eps:1e-9 "symmetric" d (Ext.pairwise b a)

(* --- Tld_analysis --------------------------------------------------------- *)

let e name country = { D.name; country }

let mk_country cc tlds =
  let sites =
    List.concat_map
      (fun ((tld : D.entity), n) ->
        List.init n (fun i ->
            {
              D.domain = Printf.sprintf "%s-%s-%d%s" cc tld.D.name i tld.D.name;
              hosting = None;
              dns = None;
              ca = None;
              tld;
              hosting_geo = None;
              ns_geo = None;
              hosting_anycast = false;
              ns_anycast = false;
              language = None;
            }))
      tlds
  in
  { D.country = cc; sites }

let tld_ds () =
  D.of_country_data
    [
      mk_country "AT"
        [ (e ".com" "US", 4); (e ".at" "AT", 3); (e ".de" "DE", 2); (e ".io" "GB", 1) ];
    ]

let test_tld_categorize () =
  let module T = Webdep.Tld_analysis in
  Alcotest.(check string) "com" ".com" (T.category_name (T.categorize ~cc:"AT" (e ".com" "US")));
  Alcotest.(check string) "local" "local ccTLD"
    (T.category_name (T.categorize ~cc:"AT" (e ".at" "AT")));
  Alcotest.(check string) "external" "external ccTLDs"
    (T.category_name (T.categorize ~cc:"AT" (e ".de" "DE")));
  Alcotest.(check string) "repurposed is global" "global TLDs"
    (T.category_name (T.categorize ~cc:"AT" (e ".io" "GB")));
  Alcotest.(check string) ".uk external elsewhere" "external ccTLDs"
    (T.category_name (T.categorize ~cc:"AT" (e ".uk" "GB")));
  Alcotest.(check string) ".uk local for GB" "local ccTLD"
    (T.category_name (T.categorize ~cc:"GB" (e ".uk" "GB")))

let test_tld_breakdown () =
  let module T = Webdep.Tld_analysis in
  let ds = tld_ds () in
  let b = T.breakdown ds "AT" in
  check_float "com" 0.4 (List.assoc T.Com b);
  check_float "local" 0.3 (List.assoc T.Local_cctld b);
  check_float "external" 0.2 (List.assoc T.External_cctld b);
  check_float "global" 0.1 (List.assoc T.Global_tld b)

let test_tld_external_list () =
  let module T = Webdep.Tld_analysis in
  let ds = tld_ds () in
  (match T.external_cctlds ds "AT" with
  | [ (".de", share) ] -> check_float "de share" 0.2 share
  | _ -> Alcotest.fail "expected only .de");
  Alcotest.(check (option string)) "not above local" None (T.uses_external_over_local ds "AT")

let test_tld_external_over_local () =
  let module T = Webdep.Tld_analysis in
  let ds =
    D.of_country_data [ mk_country "BF" [ (e ".fr" "FR", 5); (e ".bf" "BF", 2); (e ".com" "US", 3) ] ]
  in
  Alcotest.(check (option string)) ".fr outranks .bf" (Some ".fr")
    (T.uses_external_over_local ds "BF")

(* --- Language analysis ------------------------------------------------------- *)

let lang_ds () =
  let site lang home i =
    {
      D.domain = Printf.sprintf "s%d-%s.af" i (Option.value ~default:"x" lang);
      hosting = Option.map (fun h -> e ("Host-" ^ h) h) home;
      dns = None;
      ca = None;
      tld = e ".af" "AF";
      hosting_geo = None;
      ns_geo = None;
      hosting_anycast = false;
      ns_anycast = false;
      language = lang;
    }
  in
  (* 10 sites: 3 Persian hosted in IR, 1 Persian local, 4 Pashto local,
     2 English on US providers. *)
  let sites =
    List.init 3 (site (Some "fa") (Some "IR"))
    @ List.init 1 (fun i -> site (Some "fa") (Some "AF") (100 + i))
    @ List.init 4 (fun i -> site (Some "ps") (Some "AF") (200 + i))
    @ List.init 2 (fun i -> site (Some "en") (Some "US") (300 + i))
  in
  D.of_country_data [ { D.country = "AF"; sites } ]

let test_language_share () =
  let ds = lang_ds () in
  check_float "fa share" 0.4 (Webdep.Language_analysis.share_of_language ds "AF" "fa");
  check_float "ps share" 0.4 (Webdep.Language_analysis.share_of_language ds "AF" "ps")

let test_language_hosted_in () =
  let ds = lang_ds () in
  check_float "persian in iran" 0.75
    (Webdep.Language_analysis.hosted_in ds "AF" ~language:"fa" ~home:"IR");
  check_float "no match" 0.0
    (Webdep.Language_analysis.hosted_in ds "AF" ~language:"zz" ~home:"IR")

let test_language_breakdown () =
  let ds = lang_ds () in
  match Webdep.Language_analysis.language_breakdown ds "AF" with
  | (first, share) :: _ ->
      Alcotest.(check bool) "fa or ps first" true (first = "fa" || first = "ps");
      check_float "top share" 0.4 share
  | [] -> Alcotest.fail "empty"

let test_language_crosstab () =
  let ds = lang_ds () in
  match Webdep.Language_analysis.language_home_crosstab ds "AF" ~language:"fa" with
  | ("IR", share) :: _ -> check_float "IR top" 0.75 share
  | _ -> Alcotest.fail "IR expected on top"

(* --- Langdetect -------------------------------------------------------------- *)

let test_langdetect_mostly_right () =
  let right = ref 0 in
  for i = 0 to 999 do
    let domain = Printf.sprintf "s%04d.example" i in
    if Webdep_pipeline.Langdetect.detect ~domain "fa" = "fa" then incr right
  done;
  let frac = float_of_int !right /. 1000.0 in
  if frac < 0.94 || frac > 0.995 then Alcotest.failf "accuracy %.3f" frac

let test_langdetect_deterministic () =
  Alcotest.(check string) "stable"
    (Webdep_pipeline.Langdetect.detect ~domain:"a.example" "ru")
    (Webdep_pipeline.Langdetect.detect ~domain:"a.example" "ru")

let test_langdetect_confusions_plausible () =
  Alcotest.(check string) "fa->ar" "ar" (Webdep_pipeline.Langdetect.confusable "fa");
  Alcotest.(check string) "cs->sk" "sk" (Webdep_pipeline.Langdetect.confusable "cs")

(* Every label the generator assigns or the detector confuses it with
   has a number, so a measured language always fits in an int. *)
let test_langdetect_labels_numbered () =
  let module Language = Webdep_worldgen.Language in
  for i = 0 to Language.label_count - 1 do
    let lang = Language.label i in
    Alcotest.(check int) (lang ^ " round trip") i (Language.id lang);
    let confused = Webdep_pipeline.Langdetect.confusable lang in
    Alcotest.(check string) (lang ^ " confusion numbered") confused
      (Language.label (Language.id confused))
  done

(* --- Redundancy ----------------------------------------------------------------- *)

let test_redundancy_basic () =
  let module Red = Webdep.Redundancy in
  let input =
    [ { Red.domain = "a"; providers = [ "P" ] };
      { Red.domain = "b"; providers = [ "P" ] };
      { Red.domain = "c"; providers = [ "P"; "Q" ] };
      { Red.domain = "d"; providers = [ "R" ] } ]
  in
  let r = Red.analyze input in
  Alcotest.(check int) "total" 4 r.Red.total_sites;
  Alcotest.(check int) "single homed" 3 r.Red.single_homed;
  (match r.Red.critical_counts with
  | ("P", 2) :: ("R", 1) :: [] -> ()
  | _ -> Alcotest.fail "critical counts wrong");
  check_float "fraction" 0.75 (Red.single_homed_fraction r);
  (* spof counts: (2,1,1) over C=4 -> HHI 6/16 -> S = 0.375 - 0.25. *)
  check_float "spof score" 0.125 r.Red.spof_score

let test_redundancy_all_redundant () =
  let module Red = Webdep.Redundancy in
  let input =
    [ { Red.domain = "a"; providers = [ "P"; "Q" ] };
      { Red.domain = "b"; providers = [ "Q"; "R" ] } ]
  in
  let r = Red.analyze input in
  Alcotest.(check int) "none single" 0 r.Red.single_homed;
  check_float "fully decentralized" 0.0 r.Red.spof_score

let test_redundancy_invalid () =
  let module Red = Webdep.Redundancy in
  Alcotest.check_raises "empty" (Invalid_argument "Redundancy.analyze: no sites") (fun () ->
      ignore (Red.analyze []));
  Alcotest.check_raises "no provider"
    (Invalid_argument "Redundancy.analyze: site with no provider: a") (fun () ->
      ignore (Red.analyze [ { Red.domain = "a"; providers = [] } ]))

let test_redundancy_duplicate_providers_collapse () =
  let module Red = Webdep.Redundancy in
  let r = Red.analyze [ { Red.domain = "a"; providers = [ "P"; "P" ] } ] in
  Alcotest.(check int) "duplicates collapse to single-homed" 1 r.Red.single_homed

(* --- Export ------------------------------------------------------------------------ *)

let export_ds () =
  D.of_country_data
    [
      {
        D.country = "AA";
        sites =
          List.init 4 (fun i ->
              {
                D.domain = Printf.sprintf "s%d.aa" i;
                hosting = Some (e (if i < 3 then "Big, Co" else "Small\"Co") "US");
                dns = None;
                ca = None;
                tld = e ".aa" "AA";
                hosting_geo = None;
                ns_geo = None;
                hosting_anycast = false;
                ns_anycast = false;
                language = None;
              });
      };
      {
        D.country = "BB";
        sites =
          List.init 2 (fun i ->
              {
                D.domain = Printf.sprintf "s%d.bb" i;
                hosting = Some (e "Solo" "BB");
                dns = None;
                ca = None;
                tld = e ".bb" "BB";
                hosting_geo = None;
                ns_geo = None;
                hosting_anycast = false;
                ns_anycast = false;
                language = None;
              });
      };
    ]

let test_export_escape () =
  Alcotest.(check string) "plain" "abc" (Webdep.Export.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Webdep.Export.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Webdep.Export.escape_field "a\"b")

let test_export_scores_roundtrip () =
  let ds = export_ds () in
  let doc = Webdep.Export.scores_csv ds Hosting in
  let parsed = Webdep.Export.scores_of_csv doc in
  Alcotest.(check int) "two rows" 2 (List.length parsed);
  List.iter
    (fun (cc, s) ->
      check_float ("score " ^ cc) (Webdep.Metrics.centralization ds Hosting cc) s ~eps:1e-5)
    parsed

let test_export_distribution_quotes_names () =
  let ds = export_ds () in
  let doc = Webdep.Export.distribution_csv ds Hosting "AA" in
  Alcotest.(check bool) "comma name quoted" true
    (String.length doc > 0
    && (let lines = String.split_on_char '\n' doc in
        List.exists (fun l -> String.length l > 0 && String.contains l '"') lines))

let test_export_insularity_and_usage_headers () =
  let ds = export_ds () in
  let ins = Webdep.Export.insularity_csv ds Hosting in
  Alcotest.(check bool) "insularity header" true
    (String.length ins >= 23 && String.sub ins 0 23 = "rank,country,insularity");
  let usage = Webdep.Export.usage_csv ds Hosting in
  Alcotest.(check bool) "usage header" true
    (String.length usage >= 8 && String.sub usage 0 8 = "provider")

(* --- Report_md -------------------------------------------------------------- *)

let test_report_md_structure () =
  let ds = export_ds () in
  let options =
    { Webdep.Report_md.default_options with case_studies = []; include_classes = false }
  in
  let doc = Webdep.Report_md.generate ~options ds in
  let has needle =
    let nl = String.length needle and dl = String.length doc in
    let rec scan i = i + nl <= dl && (String.sub doc i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "title" true (has "# Web dependence report");
  Alcotest.(check bool) "hosting section" true (has "## Hosting layer");
  Alcotest.(check bool) "tld section" true (has "## Tld layer");
  Alcotest.(check bool) "markdown table" true (has "|---|");
  Alcotest.(check bool) "no classes section" true (not (has "provider classes"))

let test_report_md_with_classes_and_cases () =
  let ds = export_ds () in
  let options =
    { Webdep.Report_md.top_rows = 2; case_studies = [ ("AA", "US") ];
      include_classes = true }
  in
  let doc = Webdep.Report_md.generate ~options ds in
  let has needle =
    let nl = String.length needle and dl = String.length doc in
    let rec scan i = i + nl <= dl && (String.sub doc i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "classes" true (has "## Hosting provider classes");
  Alcotest.(check bool) "case study row" true (has "| AA | US |")

let test_report_md_layer_section () =
  let ds = export_ds () in
  let section = Webdep.Report_md.layer_section ds Hosting ~top_rows:1 in
  Alcotest.(check bool) "one ranked row" true
    (List.length
       (List.filter
          (fun l -> String.length l > 2 && l.[0] = '|' && l.[2] = '1')
          (String.split_on_char '\n' section))
    >= 1)

let test_export_bad_csv () =
  Alcotest.check_raises "bad header"
    (Invalid_argument "Export.scores_of_csv: unexpected header") (fun () ->
      ignore (Webdep.Export.scores_of_csv "a,b,c\n1,2,3\n"))

let () =
  Alcotest.run "webdep_extensions"
    [
      ( "baselines",
        [
          Alcotest.test_case "gini uniform" `Quick test_gini_uniform;
          Alcotest.test_case "gini blind to n" `Quick test_gini_blind_to_provider_count;
          Alcotest.test_case "gini concentrated" `Quick test_gini_concentrated;
          Alcotest.test_case "shannon evenness" `Quick test_shannon_evenness;
          Alcotest.test_case "effective providers" `Quick test_effective_providers;
          Alcotest.test_case "gini single" `Quick test_gini_single_provider;
          Alcotest.test_case "effective uneven" `Quick test_effective_providers_uneven;
          Alcotest.test_case "top-n disagreement" `Quick test_topn_disagreement;
        ] );
      ( "emd extensions",
        [
          Alcotest.test_case "weighted reduces to S" `Quick test_weighted_score_reduces_to_s;
          Alcotest.test_case "weighted traffic" `Quick test_weighted_score_traffic;
          Alcotest.test_case "weighted invalid" `Quick test_weighted_score_invalid;
          Alcotest.test_case "pairwise identity" `Quick test_pairwise_identity;
          Alcotest.test_case "pairwise scale free" `Quick test_pairwise_scale_free;
          Alcotest.test_case "pairwise ordering" `Quick test_pairwise_orders_by_difference;
          Alcotest.test_case "sorted share l1" `Quick test_sorted_share_l1;
          Alcotest.test_case "pairwise sizes" `Quick test_pairwise_different_sizes;
        ] );
      ( "tld analysis",
        [
          Alcotest.test_case "categorize" `Quick test_tld_categorize;
          Alcotest.test_case "breakdown" `Quick test_tld_breakdown;
          Alcotest.test_case "external list" `Quick test_tld_external_list;
          Alcotest.test_case "external over local" `Quick test_tld_external_over_local;
        ] );
      ( "language",
        [
          Alcotest.test_case "share" `Quick test_language_share;
          Alcotest.test_case "hosted in" `Quick test_language_hosted_in;
          Alcotest.test_case "breakdown" `Quick test_language_breakdown;
          Alcotest.test_case "crosstab" `Quick test_language_crosstab;
          Alcotest.test_case "langdetect accuracy" `Quick test_langdetect_mostly_right;
          Alcotest.test_case "langdetect deterministic" `Quick test_langdetect_deterministic;
          Alcotest.test_case "langdetect confusions" `Quick test_langdetect_confusions_plausible;
          Alcotest.test_case "langdetect labels numbered" `Quick test_langdetect_labels_numbered;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "basic" `Quick test_redundancy_basic;
          Alcotest.test_case "all redundant" `Quick test_redundancy_all_redundant;
          Alcotest.test_case "invalid" `Quick test_redundancy_invalid;
          Alcotest.test_case "duplicates collapse" `Quick test_redundancy_duplicate_providers_collapse;
        ] );
      ( "export",
        [
          Alcotest.test_case "escape" `Quick test_export_escape;
          Alcotest.test_case "scores roundtrip" `Quick test_export_scores_roundtrip;
          Alcotest.test_case "distribution quoting" `Quick test_export_distribution_quotes_names;
          Alcotest.test_case "headers" `Quick test_export_insularity_and_usage_headers;
          Alcotest.test_case "bad csv" `Quick test_export_bad_csv;
        ] );
      ( "report_md",
        [
          Alcotest.test_case "structure" `Quick test_report_md_structure;
          Alcotest.test_case "classes and cases" `Quick test_report_md_with_classes_and_cases;
          Alcotest.test_case "layer section" `Quick test_report_md_layer_section;
        ] );
    ]
