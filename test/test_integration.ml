(* End-to-end integration tests: generate the calibrated world, run the
   full measurement pipeline, and assert the paper's shape claims.  A
   reduced toplist size (c = 1500) and a 20-country panel keep the suite
   fast; the bench harness runs the full 150 x 10k configuration. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Scores = Webdep_reference.Paper_scores

let panel =
  [ "TH"; "ID"; "IR"; "US"; "TM"; "CZ"; "RU"; "SK"; "JP"; "DE"; "FR"; "PL"; "KG"; "BG";
    "LT"; "TW"; "BR"; "GB"; "NG"; "AF" ]

(* Build once, share across tests. *)
let world = World.create ~c:1500 ~seed:2024 ()
let dataset = lazy (Measure.measure_all ~countries:panel world)

let score layer cc = Webdep.Metrics.centralization (Lazy.force dataset) layer cc

let test_scores_track_paper () =
  (* Measured scores correlate near-perfectly with Appendix F on the
     panel, for every layer. *)
  List.iter
    (fun layer ->
      let ds = Lazy.force dataset in
      let measured =
        Array.of_list (List.map (fun cc -> Webdep.Metrics.centralization ds layer cc) panel)
      in
      let paper = Scores.scores_in_country_order layer panel in
      let rho = (Webdep_stats.Correlation.pearson measured paper).Webdep_stats.Correlation.rho in
      if rho < 0.98 then
        Alcotest.failf "%s: paper-vs-measured rho %.4f" (Scores.layer_name layer) rho)
    Scores.all_layers

let test_headline_orderings () =
  (* TH most centralized hosting in the panel; IR least. *)
  let hosting = List.map (fun cc -> (cc, score Hosting cc)) panel in
  let max_cc = fst (List.fold_left (fun (bc, bs) (cc, s) -> if s > bs then (cc, s) else (bc, bs)) ("", -1.0) hosting) in
  let min_cc = fst (List.fold_left (fun (bc, bs) (cc, s) -> if s < bs then (cc, s) else (bc, bs)) ("", 2.0) hosting) in
  Alcotest.(check string) "TH most centralized" "TH" max_cc;
  Alcotest.(check string) "IR least centralized" "IR" min_cc

let test_ca_more_centralized_than_hosting () =
  (* §7: CA centralization exceeds hosting nearly everywhere. *)
  let ds = Lazy.force dataset in
  let higher =
    List.length
      (List.filter
         (fun cc ->
           Webdep.Metrics.centralization ds Ca cc > Webdep.Metrics.centralization ds Hosting cc)
         panel)
  in
  Alcotest.(check bool) "CA higher for most countries" true (higher >= 15)

let test_cloudflare_top_everywhere_except_japan () =
  let ds = Lazy.force dataset in
  List.iter
    (fun cc ->
      match D.counts_by_entity ds Hosting cc with
      | (top, _) :: _ ->
          let expected = if cc = "JP" then "Amazon" else "Cloudflare" in
          Alcotest.(check string) (cc ^ " top provider") expected top.D.name
      | [] -> Alcotest.fail "no providers")
    panel

let test_insularity_shape () =
  let ds = Lazy.force dataset in
  let ins cc = Webdep.Regionalization.insularity ds Hosting cc in
  (* US most insular; IR/CZ/RU next tier; TM tiny (§5.3.1). *)
  Alcotest.(check bool) "US > 0.85" true (ins "US" > 0.85);
  Alcotest.(check bool) "IR around 0.648" true (Float.abs (ins "IR" -. 0.648) < 0.05);
  Alcotest.(check bool) "TM < 0.08" true (ins "TM" < 0.08);
  Alcotest.(check bool) "US most insular in panel" true
    (List.for_all (fun cc -> cc = "US" || ins cc <= ins "US") panel)

let test_cross_border_dependencies () =
  let ds = Lazy.force dataset in
  let dep cc home =
    match List.assoc_opt home (Webdep.Regionalization.foreign_dependence ds Hosting cc) with
    | Some s -> s
    | None -> 0.0
  in
  Alcotest.(check bool) "TM on RU ~0.33" true (Float.abs (dep "TM" "RU" -. 0.33) < 0.04);
  Alcotest.(check bool) "SK on CZ ~0.257" true (Float.abs (dep "SK" "CZ" -. 0.257) < 0.04);
  Alcotest.(check bool) "AF on IR ~0.20" true (Float.abs (dep "AF" "IR" -. 0.20) < 0.04);
  Alcotest.(check bool) "UA-low pattern holds: LT on RU small" true (dep "LT" "RU" < 0.08)

let test_tld_layer_shape () =
  let ds = Lazy.force dataset in
  (* US dominated by .com; KG split across .com/.ru/.kg (Appendix B). *)
  Alcotest.(check bool) ".com dominates US" true
    (D.entity_share ds Tld "US" ~name:".com" > 0.7);
  let kg_ru = D.entity_share ds Tld "KG" ~name:".ru" in
  Alcotest.(check bool) "KG on .ru ~0.22" true (Float.abs (kg_ru -. 0.22) < 0.05);
  (* TLD is the most insular layer for ccTLD-primary countries like CZ. *)
  Alcotest.(check bool) "CZ TLD insular" true
    (Webdep.Regionalization.insularity ds Tld "CZ"
    > Webdep.Regionalization.insularity ds Hosting "CZ")

let test_ca_layer_shape () =
  let ds = Lazy.force dataset in
  (* Seven global CAs own ~98% in a typical country (§7.1). *)
  let global7 =
    [ "Let's Encrypt"; "DigiCert"; "Sectigo"; "Google Trust Services";
      "Amazon Trust Services"; "GlobalSign"; "GoDaddy" ]
  in
  let top7_share cc =
    List.fold_left (fun acc name -> acc +. D.entity_share ds Ca cc ~name) 0.0 global7
  in
  Alcotest.(check bool) "DE top7 > 0.9" true (top7_share "DE" > 0.9);
  Alcotest.(check bool) "IR top7 ~0.8" true (top7_share "IR" < 0.9);
  (* Asseco is used in PL and IR (§7.2). *)
  Alcotest.(check bool) "Asseco in PL" true
    (D.entity_share ds Ca "PL" ~name:"Asseco (Certum)" > 0.1);
  Alcotest.(check bool) "Asseco in IR" true
    (D.entity_share ds Ca "IR" ~name:"Asseco (Certum)" > 0.1)

let test_regional_providers_reduce_centralization () =
  (* §5.2: regional-provider share anti-correlates with S. *)
  let ds = Lazy.force dataset in
  let regional_share cc =
    List.fold_left
      (fun acc ((e : D.entity), k) ->
        ignore e;
        acc + k)
      0
      (List.filter
         (fun ((e : D.entity), _) -> e.D.country = cc)
         (D.counts_by_entity ds Hosting cc))
    |> float_of_int
  in
  let shares = Array.of_list (List.map regional_share panel) in
  let scores = Array.of_list (List.map (score Hosting) panel) in
  let rho = (Webdep_stats.Correlation.pearson shares scores).Webdep_stats.Correlation.rho in
  Alcotest.(check bool) "negative correlation" true (rho < -0.2)

let test_usage_endemicity_separation () =
  let ds = Lazy.force dataset in
  let cf = Webdep.Regionalization.usage_curve ds Hosting ~name:"Cloudflare" in
  let beget = Webdep.Regionalization.usage_curve ds Hosting ~name:"Beget LLC" in
  Alcotest.(check bool) "Cloudflare larger" true
    (cf.Webdep.Regionalization.usage > beget.Webdep.Regionalization.usage);
  Alcotest.(check bool) "Beget more endemic" true
    (beget.Webdep.Regionalization.endemicity_ratio
    > cf.Webdep.Regionalization.endemicity_ratio)

let test_anycast_flags () =
  (* Cloudflare-hosted sites resolve into anycast space; regional-hosted
     ones do not. *)
  let ds = Lazy.force dataset in
  let cd = D.country_exn ds "TH" in
  let cloudflare_sites =
    List.filter
      (fun s ->
        match s.D.hosting with Some e -> e.D.name = "Cloudflare" | None -> false)
      cd.D.sites
  in
  Alcotest.(check bool) "some cloudflare sites" true (List.length cloudflare_sites > 0);
  Alcotest.(check bool) "anycast flagged" true
    (List.for_all (fun s -> s.D.hosting_anycast) cloudflare_sites)

let test_geolocation_enrichment () =
  let ds = Lazy.force dataset in
  let cd = D.country_exn ds "DE" in
  let geolocated = List.filter (fun s -> s.D.hosting_geo <> None) cd.D.sites in
  Alcotest.(check bool) "all sites geolocated" true
    (List.length geolocated = List.length cd.D.sites)

let test_pipeline_recovers_ground_truth () =
  (* The measured hosting org must equal the generator's assignment for
     almost every site; the only permitted deviations are the multi-CDN
     sites that answer with their secondary provider from a non-home
     vantage (the pipeline measures France from the US here). *)
  let snap = World.snapshot world "FR" in
  let measured = Measure.measure_snapshot world snap in
  let mismatches =
    List.fold_left
      (fun acc s ->
        match (s.D.hosting, Hashtbl.find_opt snap.World.assigned s.D.domain) with
        | Some got, Some (expected, _, _) ->
            if String.equal got.D.name expected.Webdep_worldgen.Provider.name then acc
            else acc + 1
        | _ -> acc + 1)
      0 measured.D.sites
  in
  let budget =
    int_of_float (float_of_int (List.length measured.D.sites) *. World.multi_cdn_fraction)
  in
  if mismatches > budget then
    Alcotest.failf "%d mismatches exceed the multi-CDN budget %d" mismatches budget;
  (* Measured from the home vantage there is no deviation at all. *)
  let home_measured = Measure.measure_snapshot ~vantage:"FR" world snap in
  let home_mismatches =
    List.fold_left
      (fun acc s ->
        match (s.D.hosting, Hashtbl.find_opt snap.World.assigned s.D.domain) with
        | Some got, Some (expected, _, _) ->
            if String.equal got.D.name expected.Webdep_worldgen.Provider.name then acc
            else acc + 1
        | _ -> acc + 1)
      0 home_measured.D.sites
  in
  Alcotest.(check int) "home vantage exact" 0 home_mismatches

let test_vantage_validation () =
  let ds = Lazy.force dataset in
  let home = List.map (fun cc -> (cc, Webdep.Metrics.centralization ds Hosting cc)) panel in
  let probes = Measure.measure_with_probes ~per_country_probes:3 ~seed:99 world panel in
  let v = Webdep.Validate.correlate ~home ~probes in
  Alcotest.(check bool) "rho above 0.9" true (v.Webdep.Validate.rho.Webdep_stats.Correlation.rho > 0.9)

let test_longitudinal_experiment () =
  let ds23 = Lazy.force dataset in
  let ds25 = Measure.measure_all ~epoch:World.May_2025 ~countries:panel world in
  let cmp = Webdep.Longitudinal.compare ~focus:"Cloudflare" ~old_ds:ds23 ~new_ds:ds25 Hosting in
  Alcotest.(check bool) "rho high" true (cmp.Webdep.Longitudinal.rho.Webdep_stats.Correlation.rho > 0.9);
  Alcotest.(check bool) "jaccard ~0.37" true
    (Float.abs (cmp.Webdep.Longitudinal.mean_jaccard -. 0.37) < 0.05);
  (* Brazil's S rises sharply (0.1446 → 0.2354). *)
  let br = List.find (fun d -> d.Webdep.Longitudinal.country = "BR") cmp.Webdep.Longitudinal.deltas in
  Alcotest.(check bool) "BR increases" true (br.Webdep.Longitudinal.delta > 0.05);
  (* Russia decreases. *)
  let ru = List.find (fun d -> d.Webdep.Longitudinal.country = "RU") cmp.Webdep.Longitudinal.deltas in
  Alcotest.(check bool) "RU decreases" true (ru.Webdep.Longitudinal.delta < 0.0);
  (* Cloudflare usage grows on average. *)
  match cmp.Webdep.Longitudinal.focus_mean_delta with
  | Some d -> Alcotest.(check bool) "Cloudflare grows" true (d > 0.01)
  | None -> Alcotest.fail "focus delta missing"

let test_iterative_pipeline_mode_identical () =
  (* Feeding the pipeline the answers of a ZDNS-mode iterative walk must
     yield the same hosting layer as the sweep's flat resolution: every
     GR site's measured hosting organization is the one its iteratively
     resolved address maps to. *)
  let module I = Webdep_dnssim.Iterative in
  let module Org = Webdep_netsim.Org in
  let snap = World.snapshot world "GR" in
  let hierarchy = Webdep_dnssim.Hierarchy.build snap.World.zones in
  let internet = World.internet world in
  let measured = Measure.measure_snapshot world snap in
  Alcotest.(check int) "all sites" 1500 (List.length measured.D.sites);
  List.iter
    (fun (s : D.site) ->
      let addr =
        match I.resolve hierarchy ~vantage:Measure.default_vantage s.D.domain with
        | Ok (a :: _, _) -> Some a
        | Ok ([], _) | Error _ -> None
      in
      let hosting =
        Option.map
          (fun (o : Org.t) -> { D.name = o.Org.name; country = o.Org.country })
          (Option.bind addr (Webdep_netsim.Internet.org_of_addr internet))
      in
      if hosting <> s.D.hosting then Alcotest.failf "hosting differs on %s" s.D.domain)
    measured.D.sites

let test_iterative_resolution_agrees () =
  (* ZDNS-style iterative walks over the delegation hierarchy must land
     on the same answers as the flat resolver, in ~3 queries each, in
     every country checked. *)
  List.iter
    (fun cc ->
      let stats = Measure.iterative_resolution_stats world cc in
      let at what = Printf.sprintf "%s: %s" cc what in
      Alcotest.(check int) (at "all domains") 1500 stats.Measure.domains;
      Alcotest.(check (float 0.0)) (at "full agreement") 1.0 stats.Measure.agreement;
      Alcotest.(check int) (at "no failures") 0 stats.Measure.failures;
      (* Direct sites take 3 queries (root, TLD, auth); CDN-fronted sites
         restart at the root for the CNAME target, so the mean sits
         between 3 and 6 depending on the country's CDN share. *)
      Alcotest.(check bool) (at "3..6 queries") true
        (stats.Measure.mean_queries >= 2.9 && stats.Measure.mean_queries <= 6.1))
    [ "FR"; "GR" ]

let test_language_case_study () =
  (* §5.3.3 via LangDetect: ~31.4% of Afghan sites Persian, ~60.8% of
     those hosted in Iran. *)
  let ds = Lazy.force dataset in
  let fa = Webdep.Language_analysis.share_of_language ds "AF" "fa" in
  let fa_ir = Webdep.Language_analysis.hosted_in ds "AF" ~language:"fa" ~home:"IR" in
  Alcotest.(check bool) "persian share ~0.314" true (Float.abs (fa -. 0.314) < 0.04);
  Alcotest.(check bool) "persian-in-iran ~0.608" true (Float.abs (fa_ir -. 0.608) < 0.07)

let test_redundancy_pipeline () =
  let input =
    Measure.discover_redundancy ~vantages:[ "US"; "TH"; "DE"; "JP"; "BR" ] world "TH"
  in
  let r = Webdep.Redundancy.analyze input in
  (* multi-CDN sites are the only redundancy source: single-homed stays
     within a few points of (1 − multi_cdn_fraction). *)
  let frac = Webdep.Redundancy.single_homed_fraction r in
  Alcotest.(check bool) "single-homed near 1 - multiCDN" true
    (frac > 1.0 -. World.multi_cdn_fraction -. 0.03 && frac < 1.0);
  (match r.Webdep.Redundancy.critical_counts with
  | (top, _) :: _ -> Alcotest.(check string) "Cloudflare most critical" "Cloudflare" top
  | [] -> Alcotest.fail "no critical providers");
  (* The SPOF score tracks the ordinary S (most sites are single-homed). *)
  let s = score Hosting "TH" in
  Alcotest.(check bool) "spof below S" true
    (r.Webdep.Redundancy.spof_score <= s +. 0.001);
  Alcotest.(check bool) "spof near S" true (s -. r.Webdep.Redundancy.spof_score < 0.05)

let test_external_tlds_shape () =
  let ds = Lazy.force dataset in
  (* Burkina Faso uses .fr above .bf (Appendix B); Kyrgyzstan splits
     across .com/.ru/.kg. *)
  Alcotest.(check (option string)) "KG leans .ru" (Some ".ru")
    (Webdep.Tld_analysis.uses_external_over_local ds "KG");
  (match Webdep.Tld_analysis.external_cctlds ds "KG" with
  | (".ru", share) :: _ -> Alcotest.(check bool) ".ru ~22%" true (Float.abs (share -. 0.22) < 0.04)
  | _ -> Alcotest.fail ".ru expected first");
  let b = Webdep.Tld_analysis.breakdown ds "US" in
  let com = List.assoc Webdep.Tld_analysis.Com b in
  Alcotest.(check bool) "US .com ~77%" true (Float.abs (com -. 0.77) < 0.04)

let test_baselines_on_measured_world () =
  let module B = Webdep_emd.Baselines in
  let ds = Lazy.force dataset in
  let labelled = List.map (fun cc -> (cc, D.distribution ds Hosting cc)) panel in
  let dis = B.compare_with_top_n labelled in
  Alcotest.(check bool) "pairs" true (dis.B.pairs_compared = 190);
  (* Gini ranks TH below IR in inequality terms less sharply than S. *)
  let g cc = B.gini (D.distribution ds Hosting cc) in
  Alcotest.(check bool) "gini bounded" true (g "TH" > 0.0 && g "TH" < 1.0)

let test_export_roundtrip_measured () =
  let ds = Lazy.force dataset in
  let doc = Webdep.Export.scores_csv ds Hosting in
  let parsed = Webdep.Export.scores_of_csv doc in
  Alcotest.(check int) "all countries" (List.length panel) (List.length parsed);
  List.iter
    (fun (cc, s) ->
      if Float.abs (s -. score Hosting cc) > 1e-5 then Alcotest.failf "roundtrip %s" cc)
    parsed

let test_fisher_interval_contains_rho () =
  let ds = Lazy.force dataset in
  let measured =
    Array.of_list (List.map (fun cc -> Webdep.Metrics.centralization ds Hosting cc) panel)
  in
  let paper = Scores.scores_in_country_order Hosting panel in
  let r = Webdep_stats.Correlation.pearson measured paper in
  let lo, hi = Webdep_stats.Correlation.fisher_interval r in
  Alcotest.(check bool) "interval brackets rho" true
    (lo <= r.Webdep_stats.Correlation.rho && r.Webdep_stats.Correlation.rho <= hi);
  Alcotest.(check bool) "high lower bound" true (lo > 0.9)

let test_state_ca_untrusted () =
  (* §7.2: a sliver of Russian sites use the state root CA; browsers
     reject it, so the pipeline cannot label those sites' CAs — yet the
     observed CA score still matches the paper. *)
  let snap = World.snapshot world "RU" in
  let measured = Measure.measure_snapshot world snap in
  let state_ca_sites =
    List.filter
      (fun s ->
        match Hashtbl.find_opt snap.World.assigned s.D.domain with
        | Some (_, _, ca) -> ca.Webdep_worldgen.Provider.name = "Russian Trusted Root CA"
        | None -> false)
      measured.D.sites
  in
  Alcotest.(check bool) "some state-CA sites exist" true (List.length state_ca_sites > 0);
  List.iter
    (fun s ->
      if s.D.ca <> None then
        Alcotest.failf "browser-rejected CA should be unlabelled (%s)" s.D.domain)
    state_ca_sites;
  let ds = Lazy.force dataset in
  let ru_ca = Webdep.Metrics.centralization ds Ca "RU" in
  Alcotest.(check bool) "RU CA score still tracks the paper" true
    (Float.abs (ru_ca -. 0.2474) < 0.01)

let test_subregional_coherence () =
  (* The paper's maps show regional clustering; within-subregion shape
     distance must beat cross-subregion distance. *)
  let ds = Lazy.force dataset in
  let c = Webdep.Similarity_analysis.subregional_coherence ds Hosting in
  Alcotest.(check bool) "coherent" true
    (c.Webdep.Similarity_analysis.ratio < 1.0);
  (* Shape distance separates the extremes. *)
  let d_far = Webdep.Similarity_analysis.distance ds Hosting "TH" "IR" in
  let d_near = Webdep.Similarity_analysis.distance ds Hosting "TH" "ID" in
  Alcotest.(check bool) "TH closer to ID than IR" true (d_near < d_far)

let test_measurement_records_obs_counters () =
  (* Measuring one country must leave its footprint in the webdep_obs
     registry: one DNS query and one TLS handshake attempt per site, and
     a per-country span duration histogram. *)
  let module M = Webdep_obs.Metrics in
  let dns = M.counter "pipeline.dns.queries" in
  let tls = M.counter "pipeline.tls.handshakes" in
  let dns0 = M.value dns and tls0 = M.value tls in
  let sites = D.site_count (Measure.measure_all ~countries:[ "PT" ] world) "PT" in
  Alcotest.(check bool) "sites measured" true (sites > 0);
  Alcotest.(check bool) "DNS queries counted" true (M.value dns - dns0 >= sites);
  Alcotest.(check bool) "TLS handshakes counted" true (M.value tls - tls0 > 0);
  let span = M.histogram "span.measure_country.PT" in
  Alcotest.(check bool) "per-country span recorded" true (M.count span > 0);
  Alcotest.(check bool) "span duration positive" true (M.sum span > 0.0)

let test_dependence_matrix_shape () =
  let ds = Lazy.force dataset in
  let matrix = Webdep.Regionalization.dependence_matrix ds Hosting in
  Alcotest.(check int) "six rows" 6 (List.length matrix);
  (* Every continent leans on North America (global providers are US). *)
  List.iter
    (fun (_, row) ->
      let na = List.assoc Webdep_geo.Region.North_america row in
      Alcotest.(check bool) "NA dependence positive" true (na > 0.2))
    (List.filter
       (fun (ct, row) ->
         ignore ct;
         List.exists (fun (_, v) -> v > 0.0) row)
       matrix)

(* Golden sweep digest: every field of every site, rendered as text and
   hashed, for a small world measured per epoch at --jobs 1 and 2 (one
   world serves all four: its bytes do not depend on what it measured
   before).  A refactor of the simulators or the pipeline that moves any
   byte of a dataset fails here; a change that means to move them
   re-pins the digests and says why. *)
let golden_countries = [ "US"; "RU"; "BR"; "DE"; "IR"; "AF"; "JP"; "IN" ]

let render_site buf (s : D.site) =
  let opt = Option.value ~default:"-" in
  let ent = function
    | None -> "-"
    | Some (e : D.entity) -> e.D.name ^ "@" ^ e.D.country
  in
  Printf.bprintf buf "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%b\t%b\t%s\n" s.D.domain
    (ent s.D.hosting) (ent s.D.dns) (ent s.D.ca) (ent (Some s.D.tld))
    (opt s.D.hosting_geo) (opt s.D.ns_geo) s.D.hosting_anycast s.D.ns_anycast
    (opt s.D.language)

let golden_world = lazy (World.create ~c:200 ~seed:2024 ())

let sweep_digest ~epoch ~jobs =
  let ds =
    Measure.measure_all ~epoch ~jobs ~countries:golden_countries (Lazy.force golden_world)
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun cc ->
      Buffer.add_string buf ("# " ^ cc ^ "\n");
      List.iter (render_site buf) (D.country_exn ds cc).D.sites)
    golden_countries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_digests =
  [
    (World.May_2023, "871d3c31f90f4af9307b0d6f7d52d184");
    (World.May_2025, "62ce4638fc56d9651c43460f9d8f2bea");
  ]

let test_golden_sweep_digest () =
  List.iter
    (fun (epoch, want) ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s at --jobs %d" (World.epoch_name epoch) jobs)
            want (sweep_digest ~epoch ~jobs))
        [ 1; 2 ])
    golden_digests

let () =
  Alcotest.run "webdep_integration"
    [
      ("golden", [ Alcotest.test_case "sweep digest" `Quick test_golden_sweep_digest ]);
      ( "end-to-end",
        [
          Alcotest.test_case "scores track paper" `Slow test_scores_track_paper;
          Alcotest.test_case "headline orderings" `Slow test_headline_orderings;
          Alcotest.test_case "CA > hosting centralization" `Slow test_ca_more_centralized_than_hosting;
          Alcotest.test_case "Cloudflare top except JP" `Slow test_cloudflare_top_everywhere_except_japan;
          Alcotest.test_case "insularity shape" `Slow test_insularity_shape;
          Alcotest.test_case "cross-border dependencies" `Slow test_cross_border_dependencies;
          Alcotest.test_case "TLD layer shape" `Slow test_tld_layer_shape;
          Alcotest.test_case "CA layer shape" `Slow test_ca_layer_shape;
          Alcotest.test_case "regional reduces centralization" `Slow test_regional_providers_reduce_centralization;
          Alcotest.test_case "usage/endemicity separation" `Slow test_usage_endemicity_separation;
          Alcotest.test_case "anycast flags" `Slow test_anycast_flags;
          Alcotest.test_case "geolocation enrichment" `Slow test_geolocation_enrichment;
          Alcotest.test_case "pipeline recovers ground truth" `Slow test_pipeline_recovers_ground_truth;
          Alcotest.test_case "vantage validation" `Slow test_vantage_validation;
          Alcotest.test_case "longitudinal experiment" `Slow test_longitudinal_experiment;
          Alcotest.test_case "iterative resolution" `Slow test_iterative_resolution_agrees;
          Alcotest.test_case "iterative pipeline mode" `Slow test_iterative_pipeline_mode_identical;
          Alcotest.test_case "language case study" `Slow test_language_case_study;
          Alcotest.test_case "redundancy pipeline" `Slow test_redundancy_pipeline;
          Alcotest.test_case "external tlds" `Slow test_external_tlds_shape;
          Alcotest.test_case "baselines on world" `Slow test_baselines_on_measured_world;
          Alcotest.test_case "export roundtrip" `Slow test_export_roundtrip_measured;
          Alcotest.test_case "fisher interval" `Slow test_fisher_interval_contains_rho;
          Alcotest.test_case "state CA untrusted" `Slow test_state_ca_untrusted;
          Alcotest.test_case "subregional coherence" `Slow test_subregional_coherence;
          Alcotest.test_case "dependence matrix" `Slow test_dependence_matrix_shape;
          Alcotest.test_case "obs counters recorded" `Slow test_measurement_records_obs_counters;
        ] );
    ]
