(* Tests for the webdep core toolkit on small hand-built datasets. *)

open Webdep
module D = Dataset

let e name country = { D.name; country }

let site ?(hosting = None) ?(dns = None) ?(ca = None) ?(tld = e ".com" "US")
    ?(hosting_geo = None) ?(ns_geo = None) ?(hosting_anycast = false) ?(ns_anycast = false)
    ?(language = None) domain =
  { D.domain; hosting; dns; ca; tld; hosting_geo; ns_geo; hosting_anycast; ns_anycast;
    language }

(* A toy two-country dataset:
   - AA: 10 sites; hosting 6 on BigCo(US), 3 on LocalAA(AA), 1 on NicheAA(AA)
   - BB: 10 sites; hosting 5 on BigCo, 5 on LocalBB(BB). *)
let toy () =
  let mk_country cc specs =
    let sites =
      List.concat_map
        (fun (prov, home, n) ->
          List.init n (fun i ->
              site
                ~hosting:(Some (e prov home))
                ~dns:(Some (e (prov ^ "-dns") home))
                ~ca:(Some (e "BigCA" "US"))
                ~tld:(e ".com" "US")
                (Printf.sprintf "%s-%s-%d.com" cc prov i)))
        specs
    in
    { D.country = cc; sites }
  in
  D.of_country_data
    [
      mk_country "AA" [ ("BigCo", "US", 6); ("LocalAA", "AA", 3); ("NicheAA", "AA", 1) ];
      mk_country "BB" [ ("BigCo", "US", 5); ("LocalBB", "BB", 5) ];
    ]

(* --- Dataset ----------------------------------------------------------------- *)

let test_dataset_basics () =
  let ds = toy () in
  Alcotest.(check (list string)) "countries" [ "AA"; "BB" ] (D.countries ds);
  Alcotest.(check int) "size" 20 (D.size ds);
  Alcotest.(check bool) "country lookup" true (D.country ds "AA" <> None);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (D.country_exn ds "CC"))

let test_dataset_distribution () =
  let ds = toy () in
  let dist = D.distribution ds Hosting "AA" in
  Alcotest.(check int) "three providers" 3 (Webdep_emd.Dist.size dist);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Webdep_emd.Dist.total dist)

let test_dataset_counts_sorted () =
  let ds = toy () in
  match D.counts_by_entity ds Hosting "AA" with
  | (top, 6) :: (_, 3) :: (_, 1) :: [] ->
      Alcotest.(check string) "BigCo on top" "BigCo" top.D.name
  | _ -> Alcotest.fail "unexpected counts"

let test_dataset_entity_share () =
  let ds = toy () in
  Alcotest.(check (float 1e-9)) "share" 0.6 (D.entity_share ds Hosting "AA" ~name:"BigCo");
  Alcotest.(check (float 1e-9)) "zero" 0.0 (D.entity_share ds Hosting "AA" ~name:"LocalBB")

let test_dataset_merged () =
  let ds = toy () in
  let merged = D.merged_distribution ds Hosting in
  Alcotest.(check (float 1e-9)) "total" 20.0 (Webdep_emd.Dist.total merged);
  (* BigCo merges across countries: 6 + 5 = 11 as the largest. *)
  Alcotest.(check (float 1e-9)) "top mass" 11.0 (Webdep_emd.Dist.sorted_desc merged).(0)

let test_dataset_skips_unlabelled () =
  let ds =
    D.of_country_data
      [ { D.country = "AA"; sites = [ site "x.com"; site ~hosting:(Some (e "P" "AA")) "y.com" ] } ]
  in
  let dist = D.distribution ds Hosting "AA" in
  Alcotest.(check (float 1e-9)) "only labelled" 1.0 (Webdep_emd.Dist.total dist)

let test_dataset_tld_always_present () =
  let s = site "z.org" ~tld:(e ".org" "US") in
  Alcotest.(check bool) "tld entity" true (D.entity_of s Tld <> None)

(* --- Metrics ----------------------------------------------------------------- *)

let test_metrics_centralization () =
  let ds = toy () in
  (* AA: (6,3,1)/10: HHI = 0.36+0.09+0.01 = 0.46 → S = 0.36. *)
  Alcotest.(check (float 1e-9)) "AA" 0.36 (Metrics.centralization ds Hosting "AA");
  (* BB: (5,5)/10 → 0.5 − 0.1 = 0.4. *)
  Alcotest.(check (float 1e-9)) "BB" 0.40 (Metrics.centralization ds Hosting "BB")

let test_metrics_all_scores_sorted () =
  let ds = toy () in
  match Metrics.all_scores ds Hosting with
  | [ ("BB", _); ("AA", _) ] -> ()
  | other ->
      Alcotest.failf "unexpected order: %s" (String.concat "," (List.map fst other))

let test_metrics_top_n () =
  let ds = toy () in
  Alcotest.(check (float 1e-9)) "top-1 AA" 0.6 (Metrics.top_n_share ds Hosting "AA" 1);
  Alcotest.(check (float 1e-9)) "top-2 AA" 0.9 (Metrics.top_n_share ds Hosting "AA" 2)

let test_metrics_rank_curve () =
  let ds = toy () in
  let curve = Metrics.rank_curve ds Hosting "AA" in
  Alcotest.(check (array (float 1e-9))) "curve" [| 0.6; 0.3; 0.1 |] curve;
  let cumulative = Metrics.cumulative_rank_curve ds Hosting "AA" in
  Alcotest.(check (float 1e-9)) "cumulative end" 1.0 cumulative.(2)

let test_metrics_providers_for_share () =
  let ds = toy () in
  Alcotest.(check int) "90%" 2 (Metrics.providers_for_share ds Hosting "AA" 0.9);
  Alcotest.(check int) "100%" 3 (Metrics.providers_for_share ds Hosting "AA" 1.0);
  Alcotest.(check int) "50%" 1 (Metrics.providers_for_share ds Hosting "AA" 0.5)

let test_metrics_global_score () =
  let ds = toy () in
  (* Pooled: BigCo 11, LocalBB 5, LocalAA 3, NicheAA 1 over 20.
     HHI = (121+25+9+1)/400 = 0.39 → S = 0.39 − 0.05 = 0.34. *)
  Alcotest.(check (float 1e-9)) "global" 0.34 (Metrics.global_score ds Hosting)

(* --- Regionalization ------------------------------------------------------------ *)

let test_insularity () =
  let ds = toy () in
  Alcotest.(check (float 1e-9)) "AA" 0.4 (Regionalization.insularity ds Hosting "AA");
  Alcotest.(check (float 1e-9)) "BB" 0.5 (Regionalization.insularity ds Hosting "BB")

let test_all_insularity_sorted () =
  let ds = toy () in
  match Regionalization.all_insularity ds Hosting with
  | [ ("BB", _); ("AA", _) ] -> ()
  | _ -> Alcotest.fail "sorted by insularity descending"

let test_usage_curve () =
  let ds = toy () in
  let u = Regionalization.usage_curve ds Hosting ~name:"BigCo" in
  (* 60% in AA, 50% in BB → curve (60, 50); U = 110; E = 10; E_R = 10/120. *)
  Alcotest.(check (float 1e-9)) "usage" 110.0 u.Regionalization.usage;
  Alcotest.(check (float 1e-9)) "endemicity" 10.0 u.Regionalization.endemicity;
  Alcotest.(check (float 1e-9)) "ratio" (10.0 /. 120.0) u.Regionalization.endemicity_ratio

let test_usage_curve_regional_provider () =
  let ds = toy () in
  let u = Regionalization.usage_curve ds Hosting ~name:"LocalAA" in
  (* 30% in AA, 0% in BB → E_R = 30/60 = 0.5 — more endemic than BigCo. *)
  Alcotest.(check (float 1e-9)) "ratio" 0.5 u.Regionalization.endemicity_ratio;
  let big = Regionalization.usage_curve ds Hosting ~name:"BigCo" in
  Alcotest.(check bool) "regional more endemic" true
    (u.Regionalization.endemicity_ratio > big.Regionalization.endemicity_ratio)

let test_usage_missing_provider () =
  let ds = toy () in
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Regionalization.usage_curve ds Hosting ~name:"Nobody"))

let test_all_usage_sorted () =
  let ds = toy () in
  match Regionalization.all_usage ds Hosting with
  | first :: _ ->
      Alcotest.(check string) "BigCo leads" "BigCo" first.Regionalization.entity.D.name
  | [] -> Alcotest.fail "empty"

let test_foreign_dependence () =
  let ds = toy () in
  match Regionalization.foreign_dependence ds Hosting "AA" with
  | ("US", s_us) :: ("AA", s_aa) :: [] ->
      Alcotest.(check (float 1e-9)) "US share" 0.6 s_us;
      Alcotest.(check (float 1e-9)) "AA share" 0.4 s_aa
  | _ -> Alcotest.fail "unexpected breakdown"

(* --- Classify ---------------------------------------------------------------------- *)

let test_classify_toy () =
  let ds = toy () in
  let cl = Classify.classify ds Hosting in
  Alcotest.(check int) "all providers classified" 4
    (List.length cl.Classify.providers);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 cl.Classify.table in
  Alcotest.(check int) "table sums" 4 total

let test_classify_shares_sum () =
  let ds = toy () in
  let cl = Classify.classify ds Hosting in
  let shares = Classify.class_shares cl ds Hosting "AA" in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 total

let test_klass_names () =
  Alcotest.(check (list string)) "names"
    [ "XL-GP"; "L-GP"; "L-GP (R)"; "M-GP"; "S-GP"; "L-RP"; "S-RP"; "XS-RP" ]
    (List.map Classify.klass_name Classify.all_klasses)

let test_klass_of () =
  let ds = toy () in
  let cl = Classify.classify ds Hosting in
  Alcotest.(check bool) "BigCo classified" true (Classify.klass_of cl "BigCo" <> None);
  Alcotest.(check bool) "unknown" true (Classify.klass_of cl "Nobody" = None)

(* --- Report ------------------------------------------------------------------------- *)

let test_report_ranked () =
  let ds = toy () in
  match Report.ranked_scores ds Hosting with
  | [ r1; r2 ] ->
      Alcotest.(check int) "rank 1" 1 r1.Report.rank;
      Alcotest.(check string) "BB first" "BB" r1.Report.country;
      Alcotest.(check int) "rank 2" 2 r2.Report.rank
  | _ -> Alcotest.fail "two rows expected"

let test_report_layer_stats () =
  let ds = toy () in
  Alcotest.(check (float 1e-9)) "mean" 0.38 (Report.layer_mean ds Hosting);
  Alcotest.(check (float 1e-9)) "variance" 0.0004 (Report.layer_variance ds Hosting)

let test_report_histogram () =
  let ds = toy () in
  let h = Report.score_histogram ds Hosting ~bins:6 () in
  Alcotest.(check int) "two countries" 2 (Webdep_stats.Histogram.total h)

let test_report_cdf () =
  let ds = toy () in
  let cdf = Report.insularity_cdf ds Hosting in
  Alcotest.(check int) "two points" 2 (Array.length cdf);
  Alcotest.(check (float 1e-9)) "last is 1" 1.0 (snd cdf.(1))

let test_report_subregion_spread_empty_for_toy () =
  let ds = toy () in
  Alcotest.(check int) "no subregions for fake codes" 0
    (List.length (Report.subregion_spread ds Hosting (fun _ -> 0.0)))

let test_report_region_means_skip_unknown_codes () =
  (* Toy countries are not real ISO codes: every regional grouping is
     empty rather than raising. *)
  let ds = toy () in
  Alcotest.(check int) "no subregions" 0
    (List.length (Report.subregion_means ds Hosting (fun _ -> 0.0)));
  Alcotest.(check int) "no continents" 0
    (List.length (Report.continent_means ds Hosting (fun _ -> 0.0)))

let test_dependence_matrix_toy () =
  (* Unknown codes contribute nothing; the matrix still has all six
     continent rows. *)
  let ds = toy () in
  let m = Regionalization.dependence_matrix ds Hosting in
  Alcotest.(check int) "six rows" 6 (List.length m);
  List.iter
    (fun (_, row) ->
      List.iter (fun (_, v) -> Alcotest.(check (float 1e-9)) "empty" 0.0 v) row)
    m

(* --- Toolkit ------------------------------------------------------------------------- *)

let test_toolkit_summary () =
  let ds = toy () in
  let s = Webdep.Toolkit.summarize ds in
  Alcotest.(check int) "countries" 2 s.Webdep.Toolkit.countries;
  Alcotest.(check int) "records" 20 s.Webdep.Toolkit.records;
  Alcotest.(check int) "four layers" 4 (List.length s.Webdep.Toolkit.layers);
  let hosting = List.hd s.Webdep.Toolkit.layers in
  Alcotest.(check string) "most centralized" "BB" (fst hosting.Webdep.Toolkit.most_centralized);
  Alcotest.(check string) "least centralized" "AA" (fst hosting.Webdep.Toolkit.least_centralized);
  (* pp must render without raising and mention both layers. *)
  let rendered = Format.asprintf "%a" Webdep.Toolkit.pp s in
  Alcotest.(check bool) "mentions hosting" true
    (String.length rendered > 0
    && List.exists
         (fun line -> String.length line >= 7 && String.sub line 0 7 = "hosting")
         (String.split_on_char '\n' rendered))

(* --- Render ------------------------------------------------------------------------- *)

let test_render_bar_chart () =
  let out = Webdep.Render.bar_chart ~width:10 [ ("aa", 1.0); ("bbb", 0.5) ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "two lines" true (List.length (List.filter (fun l -> l <> "") lines) = 2);
  Alcotest.(check bool) "full bar present" true
    (List.exists (fun l -> String.length l > 0 && String.contains l '#') lines);
  Alcotest.(check string) "empty for []" "" (Webdep.Render.bar_chart [])

let test_render_histogram () =
  let h = Webdep_stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 [| 0.1; 0.2; 0.9 |] in
  let out = Webdep.Render.histogram ~width:10 h in
  Alcotest.(check bool) "two rows" true
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)) = 2);
  Alcotest.(check bool) "counts shown" true
    (String.length out > 0
    && List.exists
         (fun l -> String.length l > 0 && l.[String.length l - 1] = '2')
         (String.split_on_char '\n' out))

let test_render_rank_curve () =
  let cumulative = [| 0.5; 0.75; 0.9; 1.0 |] in
  let out = Webdep.Render.rank_curve ~width:20 ~height:5 cumulative in
  Alcotest.(check bool) "has stars" true (String.contains out '*');
  Alcotest.(check bool) "axis line" true (String.contains out '+');
  Alcotest.(check string) "empty input" "" (Webdep.Render.rank_curve [||])

(* --- Bootstrap interval ---------------------------------------------------------------- *)

let test_centralization_interval () =
  let ds = toy () in
  let lo, hi = Metrics.centralization_interval ~seed:7 ds Hosting "AA" in
  let s = Metrics.centralization ds Hosting "AA" in
  Alcotest.(check bool) "brackets point estimate" true (lo <= s && s <= hi);
  Alcotest.(check bool) "nondegenerate" true (hi > lo)

(* --- Longitudinal ------------------------------------------------------------------- *)

let shifted () =
  (* Same countries, BigCo grows in AA: (8,1,1). *)
  let mk cc specs =
    let sites =
      List.concat_map
        (fun (prov, home, n) ->
          List.init n (fun i ->
              site ~hosting:(Some (e prov home)) (Printf.sprintf "%s-%s-%d.com" cc prov i)))
        specs
    in
    { D.country = cc; sites }
  in
  D.of_country_data
    [
      mk "AA" [ ("BigCo", "US", 8); ("LocalAA", "AA", 1); ("NicheAA", "AA", 1) ];
      mk "BB" [ ("BigCo", "US", 5); ("LocalBB", "BB", 5) ];
      mk "CC" [ ("BigCo", "US", 10) ];
    ]

let test_longitudinal_compare () =
  (* Need >= 3 common countries for the correlation. *)
  let mk cc specs =
    let sites =
      List.concat_map
        (fun (prov, home, n) ->
          List.init n (fun i ->
              site ~hosting:(Some (e prov home)) (Printf.sprintf "%s-%s-%d.com" cc prov i)))
        specs
    in
    { D.country = cc; sites }
  in
  let old_ds =
    D.of_country_data
      [
        mk "AA" [ ("BigCo", "US", 6); ("LocalAA", "AA", 3); ("NicheAA", "AA", 1) ];
        mk "BB" [ ("BigCo", "US", 5); ("LocalBB", "BB", 5) ];
        mk "CC" [ ("BigCo", "US", 9); ("LocalCC", "CC", 1) ];
      ]
  in
  let cmp = Longitudinal.compare ~focus:"BigCo" ~old_ds ~new_ds:(shifted ()) Hosting in
  Alcotest.(check int) "three countries" 3 (List.length cmp.Longitudinal.deltas);
  let aa = List.find (fun d -> d.Longitudinal.country = "AA") cmp.Longitudinal.deltas in
  Alcotest.(check bool) "AA grew" true (aa.Longitudinal.delta > 0.0);
  (match aa.Longitudinal.top_entity_delta with
  | Some ("BigCo", d) -> Alcotest.(check (float 1e-9)) "BigCo +20pts" 0.2 d
  | _ -> Alcotest.fail "focus delta missing");
  (* Domains overlap heavily (same naming scheme, shifted counts). *)
  Alcotest.(check bool) "jaccard in (0.5, 1]" true
    (cmp.Longitudinal.mean_jaccard > 0.5 && cmp.Longitudinal.mean_jaccard <= 1.0);
  let inc = Longitudinal.largest_increase cmp in
  Alcotest.(check string) "largest increase" "AA" inc.Longitudinal.country

(* --- Validate ----------------------------------------------------------------------- *)

let test_validate_correlate () =
  let home = [ ("AA", 0.3); ("BB", 0.2); ("CC", 0.1) ] in
  let probes = [ ("AA", 0.31); ("BB", 0.19); ("CC", 0.11); ("DD", 0.5) ] in
  let r = Validate.correlate ~home ~probes in
  Alcotest.(check int) "three shared" 3 (List.length r.Validate.pairs);
  Alcotest.(check bool) "high rho" true (r.Validate.rho.Webdep_stats.Correlation.rho > 0.95);
  Alcotest.(check bool) "max gap" true (r.Validate.max_gap <= 0.011)

let test_validate_too_few () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Validate.correlate: too few shared countries") (fun () ->
      ignore (Validate.correlate ~home:[ ("AA", 0.1) ] ~probes:[ ("AA", 0.1) ]))

(* --- dataset storage ------------------------------------------------------ *)

(* Sites over small name/country pools, so the interner keeps meeting
   names it has already numbered. *)
let gen_site domain =
  let open QCheck.Gen in
  let name =
    oneofl [ "Cloudflare"; "Amazon"; "OVH"; "Local-Host"; "NS One"; "Let's Encrypt" ]
  in
  let cc = oneofl [ "US"; "DE"; "RU"; "BR"; "JP"; "IN" ] in
  let entity = map2 (fun n c -> { D.name = n; country = c }) name cc in
  let lang = opt (oneofl [ "en"; "de"; "ru"; "pt"; "ja" ]) in
  map
    (fun ( ((domain, hosting, dns), (ca, tld, hosting_geo)),
           ((ns_geo, hosting_anycast, ns_anycast), language) ) ->
      { D.domain; hosting; dns; ca; tld; hosting_geo; ns_geo; hosting_anycast;
        ns_anycast; language })
    (pair
       (pair (triple domain (opt entity) (opt entity)) (triple (opt entity) entity (opt cc)))
       (pair (triple (opt cc) bool bool) lang))

(* The dataset's own storage — id columns and one byte buffer of
   domain names per country — gives back exactly the records fed in,
   whatever bytes a domain holds (the empty name included) and however
   many sites a country has (none included). *)
let dataset_round_trip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 5)
        (list_size (int_range 0 20) (gen_site (string_size ~gen:char (int_range 0 24)))))
  in
  QCheck.Test.make ~name:"country_exn (of_country_data cds) = cds" ~count:300 (QCheck.make gen)
    (fun countries ->
      let cds =
        List.mapi (fun i sites -> { D.country = Printf.sprintf "C%d" i; sites }) countries
      in
      let ds = D.of_country_data cds in
      D.size ds = List.fold_left (fun n (cd : D.country_data) -> n + List.length cd.sites) 0 cds
      && List.for_all (fun (cd : D.country_data) -> D.country_exn ds cd.country = cd) cds)

(* [world_ids_fit] tries only each kind's largest id; it must agree with
   trying every id of every site.  The names cover ids 0-9 of each kind
   and raise past them, as the world's do.  A site is eight draws:
   hosting, DNS, CA and TLD columns, the three aux fields and the sign
   of its aux word. *)
let world_ids_fit_every_id =
  let names =
    let upto f i = if i < 0 || i >= 10 then invalid_arg "names" else f i in
    let entity i = { D.name = string_of_int i; country = "US" } in
    { D.org_entity = upto entity; ca_entity = upto entity; tld_entity = upto entity;
      geo_label = upto string_of_int; lang_label = upto string_of_int }
  in
  let site = QCheck.Gen.(array_size (return 8) (int_range (-3) 11)) in
  let gen = QCheck.Gen.(pair (list_size (int_range 0 6) site) (int_range 0 2)) in
  QCheck.Test.make ~name:"world_ids_fit = every id tried" ~count:1000 (QCheck.make gen)
    (fun (sites, others) ->
      let w = D.world_ids ~country:"US" (Array.make (List.length sites) "d") in
      let aux s =
        D.pack_aux ~hgeo:(max 0 s.(4)) ~nsgeo:(max 0 s.(5)) ~lang:(max 0 s.(6)) ~hany:false
          ~nany:false
      in
      List.iteri
        (fun i s ->
          List.iteri (fun k (col : D.ids) -> col.{i} <- Int32.of_int s.(k))
            [ w.D.w_hosting; w.D.w_dns; w.D.w_ca; w.D.w_tld ];
          w.D.w_aux.{i} <- (if s.(7) < 0 then min_int else 0) lor aux s)
        sites;
      let w = { w with D.w_other_tlds = Array.make others { D.name = "t"; country = "US" } } in
      let tried f v =
        v = 0 || match f (v - 1) with _ -> true | exception Invalid_argument _ -> false
      in
      let site_fits s =
        tried names.org_entity s.(0) && tried names.org_entity s.(1) && tried names.ca_entity s.(2)
        && (if s.(3) > 0 then tried names.tld_entity s.(3) else s.(3) < 0 && -s.(3) <= others)
        && tried names.geo_label (max 0 s.(4)) && tried names.geo_label (max 0 s.(5))
        && tried names.lang_label (max 0 s.(6)) && s.(7) >= 0
      in
      D.world_ids_fit names w = List.for_all site_fits sites)

let qtest = QCheck_alcotest.to_alcotest

(* --- Symbol ----------------------------------------------------------------- *)

let test_symbol_round_trip () =
  let t = Symbol.create () in
  let a = Symbol.intern t "Cloudflare" in
  let b = Symbol.intern t "Amazon" in
  Alcotest.(check int) "dense ids" 0 a;
  Alcotest.(check int) "next id" 1 b;
  Alcotest.(check int) "re-intern is stable" a (Symbol.intern t "Cloudflare");
  Alcotest.(check string) "name round-trips" "Cloudflare" (Symbol.name t a);
  Alcotest.(check string) "name round-trips (2)" "Amazon" (Symbol.name t b);
  Alcotest.(check (option int)) "find" (Some b) (Symbol.find t "Amazon");
  Alcotest.(check (option int)) "find missing" None (Symbol.find t "GoDaddy");
  Alcotest.(check int) "count" 2 (Symbol.count t)

let test_symbol_growth () =
  (* Interning past the initial capacity grows the name table without
     disturbing ids or names. *)
  let t = Symbol.create ~size:2 () in
  let names = List.init 100 (Printf.sprintf "provider-%03d") in
  let ids = List.map (Symbol.intern t) names in
  Alcotest.(check (list int)) "first-seen order" (List.init 100 Fun.id) ids;
  Alcotest.(check int) "count" 100 (Symbol.count t);
  List.iteri
    (fun id name ->
      Alcotest.(check string) (Printf.sprintf "name %d survives growth" id) name
        (Symbol.name t id))
    names;
  let seen = ref [] in
  Symbol.iter (fun id name -> seen := (id, name) :: !seen) t;
  Alcotest.(check int) "iter covers all" 100 (List.length !seen);
  Alcotest.(check bool) "iter ascending" true
    (List.for_all2 (fun (id, _) want -> id = want) (List.rev !seen) (List.init 100 Fun.id))

let test_symbol_out_of_range () =
  let t = Symbol.create () in
  ignore (Symbol.intern t "only");
  Alcotest.check_raises "out of range" (Invalid_argument "Symbol.name: id out of range")
    (fun () -> ignore (Symbol.name t 1))

let () =
  Alcotest.run "webdep_core"
    [
      ( "symbol",
        [
          Alcotest.test_case "round trip" `Quick test_symbol_round_trip;
          Alcotest.test_case "growth" `Quick test_symbol_growth;
          Alcotest.test_case "out of range" `Quick test_symbol_out_of_range;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "basics" `Quick test_dataset_basics;
          Alcotest.test_case "distribution" `Quick test_dataset_distribution;
          Alcotest.test_case "counts sorted" `Quick test_dataset_counts_sorted;
          Alcotest.test_case "entity share" `Quick test_dataset_entity_share;
          Alcotest.test_case "merged" `Quick test_dataset_merged;
          Alcotest.test_case "skips unlabelled" `Quick test_dataset_skips_unlabelled;
          Alcotest.test_case "tld present" `Quick test_dataset_tld_always_present;
          qtest dataset_round_trip;
          qtest world_ids_fit_every_id;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "centralization" `Quick test_metrics_centralization;
          Alcotest.test_case "all scores sorted" `Quick test_metrics_all_scores_sorted;
          Alcotest.test_case "top n" `Quick test_metrics_top_n;
          Alcotest.test_case "rank curve" `Quick test_metrics_rank_curve;
          Alcotest.test_case "providers for share" `Quick test_metrics_providers_for_share;
          Alcotest.test_case "global score" `Quick test_metrics_global_score;
        ] );
      ( "regionalization",
        [
          Alcotest.test_case "insularity" `Quick test_insularity;
          Alcotest.test_case "all insularity sorted" `Quick test_all_insularity_sorted;
          Alcotest.test_case "usage curve" `Quick test_usage_curve;
          Alcotest.test_case "regional more endemic" `Quick test_usage_curve_regional_provider;
          Alcotest.test_case "missing provider" `Quick test_usage_missing_provider;
          Alcotest.test_case "all usage sorted" `Quick test_all_usage_sorted;
          Alcotest.test_case "foreign dependence" `Quick test_foreign_dependence;
        ] );
      ( "classify",
        [
          Alcotest.test_case "toy" `Quick test_classify_toy;
          Alcotest.test_case "shares sum" `Quick test_classify_shares_sum;
          Alcotest.test_case "klass names" `Quick test_klass_names;
          Alcotest.test_case "klass_of" `Quick test_klass_of;
        ] );
      ( "report",
        [
          Alcotest.test_case "ranked" `Quick test_report_ranked;
          Alcotest.test_case "layer stats" `Quick test_report_layer_stats;
          Alcotest.test_case "histogram" `Quick test_report_histogram;
          Alcotest.test_case "cdf" `Quick test_report_cdf;
          Alcotest.test_case "region means skip unknown" `Quick
            test_report_region_means_skip_unknown_codes;
          Alcotest.test_case "subregion spread toy" `Quick
            test_report_subregion_spread_empty_for_toy;
          Alcotest.test_case "dependence matrix toy" `Quick test_dependence_matrix_toy;
        ] );
      ("toolkit", [ Alcotest.test_case "summary" `Quick test_toolkit_summary ]);
      ( "render",
        [
          Alcotest.test_case "bar chart" `Quick test_render_bar_chart;
          Alcotest.test_case "histogram" `Quick test_render_histogram;
          Alcotest.test_case "rank curve" `Quick test_render_rank_curve;
        ] );
      ( "bootstrap interval",
        [ Alcotest.test_case "centralization interval" `Quick test_centralization_interval ] );
      ( "longitudinal",
        [ Alcotest.test_case "compare" `Quick test_longitudinal_compare ] );
      ( "validate",
        [
          Alcotest.test_case "correlate" `Quick test_validate_correlate;
          Alcotest.test_case "too few" `Quick test_validate_too_few;
        ] );
    ]
