(* Tests for webdep_worldgen: calibration, registries, mixes, the world. *)

open Webdep_worldgen
module Scores = Webdep_reference.Paper_scores

(* --- Calibrate ------------------------------------------------------------ *)

let test_calibrate_hits_targets () =
  List.iter
    (fun (target, top, n) ->
      let r = Calibrate.counts ?top_share:top ~c:10_000 ~n_providers:n ~target () in
      if Float.abs (r.Calibrate.achieved -. target) > 1e-4 then
        Alcotest.failf "target %.4f achieved %.6f" target r.Calibrate.achieved;
      Alcotest.(check int) "sums to c" 10_000 (Array.fold_left ( + ) 0 r.Calibrate.counts))
    [ (0.3548, Some 0.60, 328); (0.0411, Some 0.14, 444); (0.1358, Some 0.29, 834);
      (0.5853, Some 0.77, 120); (0.1468, None, 150); (0.0391, None, 500) ]

let test_calibrate_counts_nonincreasing () =
  let r = Calibrate.counts ~c:5000 ~n_providers:200 ~target:0.12 () in
  let c = r.Calibrate.counts in
  for i = 0 to Array.length c - 2 do
    if c.(i) < c.(i + 1) then Alcotest.fail "counts must be nonincreasing"
  done

let test_calibrate_respects_top_share () =
  let r = Calibrate.counts ~top_share:0.60 ~c:10_000 ~n_providers:328 ~target:0.3548 () in
  let top = float_of_int r.Calibrate.counts.(0) /. 10_000.0 in
  if Float.abs (top -. 0.60) > 0.02 then Alcotest.failf "top share %.3f" top

let test_calibrate_second_share () =
  let r =
    Calibrate.counts ~top_share:0.25 ~second_share:0.22 ~c:10_000 ~n_providers:354
      ~target:0.1188 ()
  in
  let second = float_of_int r.Calibrate.counts.(1) /. 10_000.0 in
  if Float.abs (second -. 0.22) > 0.02 then Alcotest.failf "second share %.3f" second

let test_calibrate_provider_count_preserved () =
  let r = Calibrate.counts ~top_share:0.29 ~c:10_000 ~n_providers:834 ~target:0.1358 () in
  Alcotest.(check int) "834 providers" 834 (Array.length r.Calibrate.counts)

let test_calibrate_invalid () =
  Alcotest.check_raises "c" (Invalid_argument "Calibrate.counts: c must be positive") (fun () ->
      ignore (Calibrate.counts ~c:0 ~n_providers:10 ~target:0.1 ()));
  Alcotest.check_raises "n" (Invalid_argument "Calibrate.counts: n_providers outside (1, c]")
    (fun () -> ignore (Calibrate.counts ~c:100 ~n_providers:1 ~target:0.1 ()))

let test_calibrate_unattainable_target () =
  (* Uniform over 100 providers floors S at ~0.0099; ask for less. *)
  let raised =
    try
      ignore (Calibrate.counts ~c:10_000 ~n_providers:100 ~target:0.001 ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejects unattainable" true raised

let prop_calibrate_random_targets =
  QCheck.Test.make ~name:"calibration converges on random targets" ~count:40
    QCheck.(pair (float_range 0.03 0.55) (int_range 100 800))
    (fun (target, n) ->
      let r = Calibrate.counts ~c:10_000 ~n_providers:n ~target () in
      Float.abs (r.Calibrate.achieved -. target) < 2e-4
      && Array.fold_left ( + ) 0 r.Calibrate.counts = 10_000)

(* [Calibrate.counts] against the earlier calibrator kept in
   [Calibrate_reference]: the same counts and the same bits of
   [achieved], or the same [Invalid_argument].  Half the cases ask for
   c/4 providers, as [Mix] does whenever c is small; targets lean
   toward the low end of the attainable range, where the paper's scores
   sit and where rounding leaves the most splits and moves, and fall a
   little past both ends; pinned shares occasionally fall outside
   [0, 1). *)
let prop_calibrate_matches_reference =
  let gen =
    QCheck.Gen.(
      (* c log-uniform over [40, 10 000]: the reference re-sorts its
         buckets after every split, which is slow at large c. *)
      let* e = float_range 0.0 1.0 in
      let c = Stdlib.min 10_000 (int_of_float (40.0 *. (250.0 ** e))) in
      (* Half the cases round c to hundreds, as every c the tools use
         is: a four-decimal target then lies on the grid of attainable
         scores, multiples of 1/c^2. *)
      let* round = bool in
      let c = if round && c >= 100 then c / 100 * 100 else c in
      let* n = oneof [ return (Stdlib.max 2 (c / 4)); int_range 2 (Stdlib.max 2 (c / 4)) ] in
      let* u = float_range (-0.3) 1.01 in
      let u = u *. u *. u in
      let* top_share = opt (float_range 0.05 0.9) in
      let* second_share = opt (float_range 0.02 0.4) in
      let* pinned = list_size (int_range 0 3) (float_range (-0.01) 0.4) in
      let floor_s = (1.0 /. float_of_int n) -. (1.0 /. float_of_int c) in
      let ceil_s = 1.0 -. (1.0 /. float_of_int c) in
      (* To four decimals, as Appendix F gives them: such a target can
         equal an attainable score exactly, where ties between moves
         come down to the last bits of each score. *)
      let target = Float.round ((floor_s +. (u *. (ceil_s -. floor_s))) *. 1e4) /. 1e4 in
      return (c, n, target, top_share, second_share, pinned))
  in
  let print (c, n, target, top, second, pinned) =
    let opt = function None -> "-" | Some x -> Printf.sprintf "%h" x in
    Printf.sprintf "c=%d n=%d target=%h top=%s second=%s pinned=[%s]" c n target (opt top)
      (opt second) (String.concat "; " (List.map (Printf.sprintf "%h") pinned))
  in
  QCheck.Test.make ~name:"counts match the reference calibrator" ~count:100
    (QCheck.make ~print gen)
    (fun (c, n_providers, target, top_share, second_share, pinned) ->
      let run f = match f () with r -> Ok r | exception Invalid_argument e -> Error e in
      match
        ( run (fun () ->
              Calibrate.counts ?top_share ?second_share ~pinned ~c ~n_providers ~target ()),
          run (fun () ->
              Calibrate_reference.counts ?top_share ?second_share ~pinned ~c ~n_providers
                ~target ()) )
      with
      | Ok r, Ok want ->
          r.Calibrate.counts = want.Calibrate_reference.counts
          && Int64.equal
               (Int64.bits_of_float r.Calibrate.achieved)
               (Int64.bits_of_float want.Calibrate_reference.achieved)
      | Error e, Error want -> String.equal e want
      | _ -> false)

(* --- Registry ------------------------------------------------------------- *)

let test_registry_class_sizes () =
  (* 6 L-GP + 2 L-GP(R) + 22 M-GP + 73 S-GP = 103 after the XL pair. *)
  Alcotest.(check int) "hosting global roster" 103 (List.length Registry.hosting_global);
  Alcotest.(check int) "dns global roster" (10 + 2 + 17 + 78) (List.length Registry.dns_global);
  Alcotest.(check int) "ca global7" 7 (List.length Registry.ca_global7);
  Alcotest.(check int) "ca medium" 2 (List.length Registry.ca_medium);
  Alcotest.(check int) "ca xsmall" 15 (List.length Registry.ca_xsmall)

let test_registry_anchors () =
  let beget = Registry.regional ~layer:"hosting" "RU" 0 in
  Alcotest.(check string) "Beget" "Beget LLC" beget.Provider.name;
  Alcotest.(check string) "home RU" "RU" beget.Provider.home;
  let shbg = Registry.regional ~layer:"hosting" "BG" 0 in
  Alcotest.(check string) "SuperHosting" "SuperHosting.BG" shbg.Provider.name;
  let synth = Registry.regional ~layer:"hosting" "ZW" 3 in
  Alcotest.(check string) "synthetic home" "ZW" synth.Provider.home

let test_registry_regional_deterministic () =
  let a = Registry.regional ~layer:"dns" "FR" 7 and b = Registry.regional ~layer:"dns" "FR" 7 in
  Alcotest.(check bool) "stable" true (Provider.equal a b)

let test_registry_tld () =
  Alcotest.(check string) ".com is US" "US" (Registry.tld ".com").Provider.home;
  Alcotest.(check string) ".de is DE" "DE" (Registry.tld ".de").Provider.home;
  Alcotest.(check string) ".uk is GB" "GB" (Registry.tld ".uk").Provider.home;
  Alcotest.(check string) ".io is GB" "GB" (Registry.tld ".io").Provider.home

let test_registry_ca_regional () =
  (match Registry.ca_regional "PL" with
  | Some p -> Alcotest.(check string) "Asseco" "Asseco (Certum)" p.Provider.name
  | None -> Alcotest.fail "PL should have a CA");
  Alcotest.(check bool) "ZW has none" true (Registry.ca_regional "ZW" = None);
  Alcotest.(check int) "about 24 regional-CA countries" 24
    (List.length Registry.ca_regional_countries)

let test_provider_slug () =
  Alcotest.(check string) "slug" "let-s-encrypt"
    (Provider.slug (Provider.make ~name:"Let's Encrypt" ~home:"US"))

(* --- Profiles ------------------------------------------------------------- *)

let test_profiles_top_shares () =
  Alcotest.(check (float 1e-9)) "TH anchored" 0.60 (Profiles.top_share Hosting "TH");
  Alcotest.(check (float 1e-9)) "US anchored" 0.29 (Profiles.top_share Hosting "US");
  let generic = Profiles.top_share Hosting "DE" in
  Alcotest.(check bool) "fitted in range" true (generic > 0.08 && generic < 0.9)

let test_profiles_top_provider () =
  Alcotest.(check string) "Cloudflare default" "Cloudflare"
    (Profiles.top_provider Hosting "TH").Provider.name;
  Alcotest.(check string) "Japan is Amazon" "Amazon"
    (Profiles.top_provider Hosting "JP").Provider.name;
  Alcotest.(check string) "CZ TLD is .cz" ".cz" (Profiles.top_provider Tld "CZ").Provider.name;
  Alcotest.(check string) "US TLD is .com" ".com" (Profiles.top_provider Tld "US").Provider.name

let test_profiles_partners () =
  Alcotest.(check (list (pair string (float 1e-9)))) "TM on Russia" [ ("RU", 0.33) ]
    (Profiles.partners Hosting "TM");
  Alcotest.(check (list (pair string (float 1e-9)))) "SK on Czechia" [ ("CZ", 0.257) ]
    (Profiles.partners Hosting "SK");
  Alcotest.(check (list (pair string (float 1e-9)))) "IR CA on Asseco" [ ("PL", 0.19) ]
    (Profiles.partners Ca "IR")

let test_profiles_n_providers_anchors () =
  Alcotest.(check int) "TH" 328 (Profiles.n_providers Hosting "TH");
  Alcotest.(check int) "IR" 444 (Profiles.n_providers Hosting "IR");
  Alcotest.(check int) "US" 834 (Profiles.n_providers Hosting "US")

let test_profiles_all_countries_covered () =
  (* Every (layer, country) pair must produce a usable plan. *)
  List.iter
    (fun layer ->
      List.iter
        (fun c ->
          let cc = c.Webdep_geo.Country.code in
          let t = Profiles.target_score layer cc in
          let p = Profiles.top_share layer cc in
          let h = Profiles.home_quota layer cc in
          if t <= 0.0 || t >= 1.0 then Alcotest.failf "%s target" cc;
          if p <= 0.0 || p >= 1.0 then Alcotest.failf "%s top share" cc;
          if h < 0.0 || h >= 1.0 then Alcotest.failf "%s home quota" cc)
        Webdep_geo.Country.all)
    Scores.all_layers

(* --- Mix -------------------------------------------------------------------- *)

let test_mix_invariants () =
  List.iter
    (fun (layer, cc) ->
      let m = Mix.build ~c:4000 layer cc in
      Alcotest.(check int) "total" 4000 (Mix.total m);
      let names = List.map (fun (p, _) -> p.Provider.name ^ "/" ^ p.Provider.home) m.Mix.assignments in
      Alcotest.(check int) "distinct providers" (List.length names)
        (List.length (List.sort_uniq compare names));
      List.iter (fun (_, k) -> if k <= 0 then Alcotest.fail "nonpositive count") m.Mix.assignments;
      let target = Scores.score_exn layer cc in
      if Float.abs (m.Mix.achieved_score -. target) > 5e-4 then
        Alcotest.failf "%s/%s: %.4f vs %.4f" (Scores.layer_name layer) cc m.Mix.achieved_score
          target)
    [ (Profiles.Hosting, "TH"); (Profiles.Hosting, "IR"); (Profiles.Dns, "CZ");
      (Profiles.Ca, "SK"); (Profiles.Tld, "US"); (Profiles.Tld, "KG") ]

let test_mix_top_provider_identity () =
  let m = Mix.build ~c:4000 Profiles.Hosting "TH" in
  let top, _ = List.hd m.Mix.assignments in
  Alcotest.(check string) "Cloudflare" "Cloudflare" top.Provider.name;
  let mj = Mix.build ~c:4000 Profiles.Hosting "JP" in
  Alcotest.(check string) "Amazon in JP" "Amazon" (fst (List.hd mj.Mix.assignments)).Provider.name

let test_mix_partner_shares () =
  let share_of_home m home =
    List.fold_left
      (fun acc (p, k) ->
        if String.equal p.Provider.home home then acc +. (float_of_int k /. float_of_int (Mix.total m))
        else acc)
      0.0 m.Mix.assignments
  in
  let tm = Mix.build ~c:10_000 Profiles.Hosting "TM" in
  let ru_share = share_of_home tm "RU" in
  if Float.abs (ru_share -. 0.33) > 0.02 then Alcotest.failf "TM->RU %.3f" ru_share;
  let sk = Mix.build ~c:10_000 Profiles.Hosting "SK" in
  let cz_share = share_of_home sk "CZ" in
  if Float.abs (cz_share -. 0.257) > 0.02 then Alcotest.failf "SK->CZ %.3f" cz_share

let test_mix_insularity_anchors () =
  let check cc expected tol =
    let m = Mix.build ~c:10_000 Profiles.Hosting cc in
    let i = Mix.insular_share m in
    if Float.abs (i -. expected) > tol then Alcotest.failf "%s insularity %.3f" cc i
  in
  check "US" 0.921 0.05;
  check "IR" 0.648 0.03;
  check "TM" 0.04 0.03

let test_mix_second_anchor () =
  let m = Mix.build ~c:10_000 Profiles.Hosting "BG" in
  match m.Mix.assignments with
  | (_, _) :: (second, k) :: _ ->
      Alcotest.(check string) "SuperHosting.BG" "SuperHosting.BG" second.Provider.name;
      if Float.abs ((float_of_int k /. 10_000.0) -. 0.22) > 0.02 then
        Alcotest.failf "share %.3f" (float_of_int k /. 10_000.0)
  | _ -> Alcotest.fail "too few assignments"

let test_mix_ca_small_world () =
  let m = Mix.build ~c:10_000 Profiles.Ca "DE" in
  Alcotest.(check bool) "few CAs" true (Mix.provider_count m <= 30)

let test_mix_deterministic () =
  let a = Mix.build ~c:2000 Profiles.Hosting "FR" in
  let b = Mix.build ~c:2000 Profiles.Hosting "FR" in
  Alcotest.(check bool) "same assignments" true (a.Mix.assignments = b.Mix.assignments)

let test_mix_unknown_country () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Mix.build Profiles.Hosting "XX"))

(* --- Language ------------------------------------------------------------------ *)

let test_language_primary () =
  Alcotest.(check string) "IR" "fa" (Language.primary "IR");
  Alcotest.(check string) "DE" "de" (Language.primary "DE");
  Alcotest.(check string) "BR" "pt" (Language.primary "BR");
  Alcotest.(check string) "default" "en" (Language.primary "US")

let test_language_assign_afghanistan_anchor () =
  (* Iranian-hosted Afghan sites are Persian; the rest mostly Pashto. *)
  let fa_ir = ref 0 and fa_other = ref 0 and n = 2000 in
  for i = 0 to n - 1 do
    let domain = Printf.sprintf "s%05d-af.af" i in
    if Language.assign ~cc:"AF" ~provider_home:"IR" ~domain = "fa" then incr fa_ir;
    if Language.assign ~cc:"AF" ~provider_home:"US" ~domain = "fa" then incr fa_other
  done;
  Alcotest.(check int) "IR-hosted all Persian" n !fa_ir;
  let frac = float_of_int !fa_other /. float_of_int n in
  if Float.abs (frac -. 0.15) > 0.03 then Alcotest.failf "base Persian rate %.3f" frac

let test_language_assign_deterministic () =
  Alcotest.(check string) "stable"
    (Language.assign ~cc:"DE" ~provider_home:"DE" ~domain:"x.de")
    (Language.assign ~cc:"DE" ~provider_home:"DE" ~domain:"x.de")

let test_language_partner_pull () =
  (* Some foreign-partner-hosted sites carry the partner's language. *)
  let partner = ref 0 and n = 2000 in
  for i = 0 to n - 1 do
    let domain = Printf.sprintf "s%05d-sk.sk" i in
    if Language.assign ~cc:"SK" ~provider_home:"CZ" ~domain = "cs" then incr partner
  done;
  let frac = float_of_int !partner /. float_of_int n in
  if frac < 0.25 || frac > 0.55 then Alcotest.failf "partner language rate %.3f" frac

(* --- World -------------------------------------------------------------------- *)

(* A world is read-only after [World.create], so the suite keeps one per
   (seed, c); tests that compare two worlds still build both. *)
let worlds = Hashtbl.create 16

let world ~seed ~c =
  match Hashtbl.find_opt worlds (seed, c) with
  | Some w -> w
  | None ->
      let w = World.create ~c ~seed () in
      Hashtbl.replace worlds (seed, c) w;
      w

(* The typed error of every (country, layer, epoch) mix a world of [c]
   sites cannot calibrate. *)
let uncalibrated_mixes ~c =
  let world = world ~seed:2024 ~c in
  List.concat_map
    (fun cc ->
      List.concat_map
        (fun epoch ->
          List.filter_map
            (fun layer ->
              match World.mix world ~epoch layer cc with
              | _ -> None
              | exception World.Uncalibrated u -> Some u)
            Scores.all_layers)
        [ World.May_2023; World.May_2025 ])
    (World.countries world)

let test_world_small_c_typed_error () =
  (* At c = 60 some Appendix-F targets are out of reach: each is a typed
     error naming the mix and the smallest c that calibrates it, never an
     Invalid_argument out of the calibrator.  At c = 100 every mix
     calibrates. *)
  let failures = uncalibrated_mixes ~c:60 in
  Alcotest.(check bool) "IR hosting fails at c=60" true
    (List.exists
       (fun (u : World.uncalibrated) -> u.World.country = "IR" && u.World.layer = Hosting)
       failures);
  List.iter
    (fun (u : World.uncalibrated) ->
      let what = World.uncalibrated_message u in
      Alcotest.(check int) (what ^ ": c") 60 u.World.c;
      let builds c =
        match World.mix (world ~seed:2024 ~c) ~epoch:u.World.epoch u.World.layer
                u.World.country
        with
        | _ -> true
        | exception World.Uncalibrated _ -> false
      in
      match u.World.min_c with
      | None -> Alcotest.failf "%s: no calibrating c found" what
      | Some m ->
          Alcotest.(check bool) (what ^ ": calibrates at min_c") true (m > 60 && builds m);
          Alcotest.(check bool) (what ^ ": not below min_c") true (m - 1 = 60 || not (builds (m - 1))))
    failures;
  (match
     Webdep_pipeline.Measure.measure_all ~countries:[ "IR" ] (world ~seed:2024 ~c:60)
   with
  | _ -> Alcotest.fail "an IR sweep at c=60 must not calibrate"
  | exception World.Uncalibrated u ->
      Alcotest.(check string) "the sweep names IR" "IR" u.World.country);
  Alcotest.(check (list string)) "every mix calibrates at c=100" []
    (List.map World.uncalibrated_message (uncalibrated_mixes ~c:100))

(* (name, home, count) per provider, by name: duplicate entries of one
   provider merge. *)
let tally_providers pairs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun ((p : Provider.t), k) ->
      let key = (p.Provider.name, p.Provider.home) in
      Hashtbl.replace t key (k + Option.value ~default:0 (Hashtbl.find_opt t key)))
    pairs;
  List.sort compare (Hashtbl.fold (fun (name, home) k acc -> (name, home, k) :: acc) t [])

let test_world_snapshot_basics () =
  let world = world ~seed:1 ~c:500 in
  let snap = World.snapshot world "TH" in
  Alcotest.(check int) "toplist length" 500 (Webdep_crux.Toplist.length snap.World.toplist);
  Alcotest.(check string) "country" "TH" snap.World.country;
  (* The ground truth draws every layer's mix exactly: each provider
     serves as many sites as its mix assigns it. *)
  let truth = List.init 500 snap.World.assigned in
  List.iter
    (fun (layer, pick) ->
      Alcotest.(check (list (triple string string int)))
        (Scores.layer_name layer ^ " ground truth tallies the mix")
        (tally_providers (World.mix world layer "TH").Mix.assignments)
        (tally_providers (List.map (fun t -> (pick t, 1)) truth)))
    [ (Scores.Hosting, fun (h, _, _) -> h); (Scores.Dns, fun (_, d, _) -> d);
      (Scores.Ca, fun (_, _, a) -> a) ]

let test_world_snapshot_deterministic () =
  let world1 = World.create ~c:300 ~seed:5 () in
  let world2 = World.create ~c:300 ~seed:5 () in
  let d1 = Webdep_crux.Toplist.domains (World.snapshot world1 "DE").World.toplist in
  let d2 = Webdep_crux.Toplist.domains (World.snapshot world2 "DE").World.toplist in
  Alcotest.(check (list string)) "same domains" d1 d2

let test_world_seed_changes_world () =
  let d seed =
    Webdep_crux.Toplist.domains
      (World.snapshot (world ~seed ~c:300) "DE").World.toplist
  in
  Alcotest.(check bool) "different seeds differ" true (d 1 <> d 2)

let test_world_epoch_churn () =
  let world = world ~seed:3 ~c:1000 in
  let t23 = (World.snapshot world "RU").World.toplist in
  let t25 = (World.snapshot world ~epoch:World.May_2025 "RU").World.toplist in
  let j =
    Webdep_stats.Similarity.jaccard_strings
      (Webdep_crux.Toplist.domains t23)
      (Webdep_crux.Toplist.domains t25)
  in
  if Float.abs (j -. 0.40) > 0.05 then Alcotest.failf "RU jaccard %.3f, expected ~0.40" j

let test_world_domains_carry_tlds () =
  let world = world ~seed:4 ~c:500 in
  let snap = World.snapshot world "DE" in
  let has_de =
    List.exists
      (fun d -> Filename.check_suffix d ".de")
      (Webdep_crux.Toplist.domains snap.World.toplist)
  in
  Alcotest.(check bool) "some .de domains" true has_de

let test_world_tld_numbers () =
  let world = world ~seed:4 ~c:500 in
  List.iter
    (fun (epoch, cc) ->
      let snap = World.snapshot world ~epoch cc in
      List.iter
        (fun d ->
          let label = Webdep_pipeline.Measure.tld_of_domain d in
          Alcotest.(check string) (d ^ " label") label
            (World.tld_label world (World.tld_id world label)))
        (Webdep_crux.Toplist.domains snap.World.toplist))
    [ (World.May_2023, "DE"); (World.May_2023, "US"); (World.May_2025, "BR") ];
  Alcotest.(check int) "unminted label" (-1) (World.tld_id world ".nosuchtld")

let test_world_epoch_names () =
  Alcotest.(check string) "2023" "2023-05" (World.epoch_name World.May_2023);
  Alcotest.(check string) "2025" "2025-05" (World.epoch_name World.May_2025)

(* Everything [World.create] builds, rendered in a fixed order: every
   country's five calibrated mixes, every network once in walk order
   (the allocator hands out consecutive /20s from 0.1.0.0, so walking
   the blocks up from there visits the networks as they were
   registered) with each block's lookup answers, and every CA owner's
   issuer CNs as CCADB maps them. *)
let world_digest w =
  let module Internet = Webdep_netsim.Internet in
  let module Ipv4 = Webdep_netsim.Ipv4 in
  let module Org = Webdep_netsim.Org in
  let module Tls_ca = Webdep_tlssim.Ca in
  let buf = Buffer.create (1 lsl 22) in
  let add fmt = Printf.bprintf buf fmt in
  let countries = World.countries w in
  List.iter
    (fun cc ->
      List.iter
        (fun (epoch, layer) ->
          add "mix %s %s %s" cc (World.epoch_name epoch) (Scores.layer_name layer);
          match World.mix w ~epoch layer cc with
          | m ->
              add " %Lx\n" (Int64.bits_of_float m.Mix.achieved_score);
              List.iter
                (fun ((p : Provider.t), k) -> add "%s\t%s\t%d\n" p.Provider.name p.Provider.home k)
                m.Mix.assignments
          | exception World.Uncalibrated u -> add " uncalibrated %s\n" u.World.reason)
        [ (World.May_2023, Scores.Tld); (World.May_2023, Scores.Hosting);
          (World.May_2023, Scores.Dns); (World.May_2023, Scores.Ca);
          (World.May_2025, Scores.Hosting) ])
    countries;
  let internet = World.internet w in
  let networks = ref 0 and last_asn = ref (-1) in
  let rec blocks b =
    let a = Ipv4.addr_of_int (b lsl 12) in
    match Internet.origin_as internet a with
    | None -> ()
    | Some asn ->
        let org = Option.get (Internet.org_of_addr internet a) in
        if asn <> !last_asn then begin
          last_asn := asn;
          incr networks;
          let n = Option.get (Internet.find_network internet org.Org.name) in
          add "net %d org %d %s %s anycast %b hq %s pops" n.Internet.asn n.Internet.org.Org.id
            n.Internet.org.Org.name n.Internet.org.Org.country n.Internet.anycast
            (Ipv4.prefix_to_string n.Internet.hq_prefix);
          List.iter
            (fun (cc, p) ->
              add " %s=%s" cc (Ipv4.prefix_to_string p);
              if Ipv4.compare_prefix (Internet.pop_near n ~near:cc) p <> 0 then add "(not near)")
            n.Internet.pops;
          add " fallback %s\n" (Ipv4.prefix_to_string (Internet.pop_near n ~near:"ZZ"))
        end;
        add "block %s as %d org %d %s geo %s anycast %b\n" (Ipv4.addr_to_string a) asn
          org.Org.id org.Org.name
          (Option.value ~default:"-" (Internet.geolocate internet a))
          (Internet.is_anycast_addr internet a);
        blocks (b + 1)
  in
  blocks 16;
  add "networks %d of %d\n" !networks (Internet.network_count internet);
  let db = World.ca_db w and seen = Hashtbl.create 64 in
  List.iter
    (fun cc ->
      List.iter
        (fun ((p : Provider.t), _) ->
          if not (Hashtbl.mem seen p.Provider.name) then begin
            Hashtbl.add seen p.Provider.name ();
            for k = 1 to 2 do
              let cn = Printf.sprintf "%s Issuing CA R%d" p.Provider.name k in
              add "issuer %s -> %s\n" cn
                (match Tls_ca.owner_of_issuer db cn with
                | Some o -> o.Tls_ca.name ^ "@" ^ o.Tls_ca.country
                | None -> "-")
            done
          end)
        (World.mix w Scores.Ca cc).Mix.assignments)
    countries;
  add "owners %d issuers %d\n" (Tls_ca.owner_count db) (Tls_ca.issuer_count db);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Pinned from the list-based calibrator and the As_db registration;
   any change that moves them changes the world.  At c = 10 000, left
   out to keep the suite short, the digest is
   299473e2f63c9db66184560df84581c1. *)
let world_digests =
  [ (300, "5efb2f203003b27fb14460f48c5ba047"); (2000, "238aefd562bd78275b0e1633f3da4694") ]

let test_world_digest () =
  List.iter
    (fun (c, want) ->
      Alcotest.(check string) (Printf.sprintf "c=%d" c) want (world_digest (world ~seed:2024 ~c)))
    world_digests

(* Everything a lane reads of one snapshot, rendered in toplist order:
   per domain what the flat resolver answers (A and NS addresses) from
   the home vantage, the US and Japan, its CNAME target, the
   certificate a handshake presents, its content language and its
   ground-truth providers; then every glue host with its address, by
   name, and the zone's domain count. *)
let snapshot_digest w =
  let module Zone_db = Webdep_dnssim.Zone_db in
  let module Resolver = Webdep_dnssim.Resolver in
  let module Ipv4 = Webdep_netsim.Ipv4 in
  let module Cert = Webdep_tlssim.Cert in
  let buf = Buffer.create (1 lsl 20) in
  let add fmt = Printf.bprintf buf fmt in
  let addrs l = String.concat "," (List.map Ipv4.addr_to_string l) in
  let name (p : Provider.t) = p.Provider.name ^ "@" ^ p.Provider.home in
  List.iter
    (fun (epoch, cc) ->
      let snap = World.snapshot w ~epoch cc in
      let zones = snap.World.zones in
      add "snapshot %s %s\n" cc (World.epoch_name epoch);
      Array.iteri
        (fun i domain ->
          add "%d %s" i domain;
          List.iter
            (fun vantage ->
              match Resolver.resolve zones ~vantage domain with
              | Ok r -> add " %s:%s/%s" vantage (addrs r.Resolver.a) (addrs r.Resolver.ns_addrs)
              | Error e -> add " %s:%s" vantage (Resolver.error_message e))
            [ cc; "US"; "JP" ];
          add " cname %s" (Option.value ~default:"-" (Option.bind (Zone_db.find zones domain) Zone_db.cname));
          (match
             Webdep_tlssim.Handshake.handshake snap.World.tls
               ~addr:(Ipv4.addr_of_int 0) ~sni:domain
           with
          | Some c -> add " cert %s|%s" c.Cert.subject c.Cert.issuer_cn
          | None -> add " cert -");
          add " lang %s"
            (Option.value ~default:"-" (Hashtbl.find_opt snap.World.content_language domain));
          let h, d, a = snap.World.assigned i in
          add " truth %s %s %s\n" (name h) (name d) (name a))
        snap.World.toplist.Webdep_crux.Toplist.domains;
      List.iter
        (fun (host, a) -> add "glue %s %s\n" host (addrs a))
        (List.sort compare
           (Zone_db.fold_hosts
              (fun host acc -> (host, Zone_db.host_addr zones ~vantage:"US" host) :: acc)
              zones []));
      add "domains %d\n" (Zone_db.domain_count zones))
    [ (World.May_2023, "US"); (World.May_2025, "US"); (World.May_2023, "DE");
      (World.May_2025, "DE"); (World.May_2023, "BR"); (World.May_2025, "BR") ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Pinned from the snapshot that registered glue per site through a
   slug table, looked each name up three times and kept the ground
   truth in a per-domain table; any change that moves it changes what
   a sweep measures. *)
let test_snapshot_digest () =
  Alcotest.(check string) "c=300" "7c74d1f2bd918b79b4fac8bb4424ef56" (snapshot_digest (world ~seed:2024 ~c:300))

(* Random (layer, country) mixes uphold the core invariants: exact total,
   distinct providers, positive counts, score within tolerance of the
   Appendix-F target.  One sanctioned exception to distinctness: in the
   CA layer a pinned regional CA that is also one of the seven globals
   (US→DigiCert, BE→GlobalSign) carries that identity in two buckets —
   the head share and the home quota — which the dataset tally merges. *)
let prop_mix_invariants =
  let all_codes = List.map (fun c -> c.Webdep_geo.Country.code) Webdep_geo.Country.all in
  let global7 =
    List.map (fun (p : Provider.t) -> p.Provider.name ^ "/" ^ p.Provider.home)
      Registry.ca_global7
  in
  QCheck.Test.make ~name:"random mixes uphold invariants" ~count:25
    QCheck.(pair (int_range 0 3) (int_range 0 149))
    (fun (layer_idx, country_idx) ->
      let layer = List.nth Scores.all_layers layer_idx in
      let cc = List.nth all_codes country_idx in
      let m = Mix.build ~c:3000 layer cc in
      let total_ok = Mix.total m = 3000 in
      let positive = List.for_all (fun (_, k) -> k > 0) m.Mix.assignments in
      let names =
        List.map (fun (p, _) -> p.Provider.name ^ "/" ^ p.Provider.home) m.Mix.assignments
      in
      let dups =
        List.filter
          (fun n -> List.length (List.filter (String.equal n) names) > 1)
          (List.sort_uniq compare names)
      in
      let distinct =
        dups = [] || (layer = Scores.Ca && List.for_all (fun n -> List.mem n global7) dups)
      in
      let target = Scores.score_exn layer cc in
      let close = Float.abs (m.Mix.achieved_score -. target) < 2e-3 in
      total_ok && positive && distinct && close)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "webdep_worldgen"
    [
      ( "calibrate",
        [
          Alcotest.test_case "hits paper targets" `Quick test_calibrate_hits_targets;
          Alcotest.test_case "nonincreasing" `Quick test_calibrate_counts_nonincreasing;
          Alcotest.test_case "respects top share" `Quick test_calibrate_respects_top_share;
          Alcotest.test_case "second share" `Quick test_calibrate_second_share;
          Alcotest.test_case "provider count preserved" `Quick test_calibrate_provider_count_preserved;
          Alcotest.test_case "invalid" `Quick test_calibrate_invalid;
          Alcotest.test_case "unattainable target" `Quick test_calibrate_unattainable_target;
          qtest prop_calibrate_random_targets;
          qtest prop_calibrate_matches_reference;
        ] );
      ( "registry",
        [
          Alcotest.test_case "class sizes" `Quick test_registry_class_sizes;
          Alcotest.test_case "anchors" `Quick test_registry_anchors;
          Alcotest.test_case "deterministic" `Quick test_registry_regional_deterministic;
          Alcotest.test_case "tld" `Quick test_registry_tld;
          Alcotest.test_case "ca regional" `Quick test_registry_ca_regional;
          Alcotest.test_case "slug" `Quick test_provider_slug;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "top shares" `Quick test_profiles_top_shares;
          Alcotest.test_case "top provider" `Quick test_profiles_top_provider;
          Alcotest.test_case "partners" `Quick test_profiles_partners;
          Alcotest.test_case "n_providers anchors" `Quick test_profiles_n_providers_anchors;
          Alcotest.test_case "all countries covered" `Quick test_profiles_all_countries_covered;
        ] );
      ( "mix",
        [
          Alcotest.test_case "invariants" `Quick test_mix_invariants;
          Alcotest.test_case "top identity" `Quick test_mix_top_provider_identity;
          Alcotest.test_case "partner shares" `Quick test_mix_partner_shares;
          Alcotest.test_case "insularity anchors" `Quick test_mix_insularity_anchors;
          Alcotest.test_case "second anchor" `Quick test_mix_second_anchor;
          Alcotest.test_case "ca small world" `Quick test_mix_ca_small_world;
          Alcotest.test_case "deterministic" `Quick test_mix_deterministic;
          Alcotest.test_case "unknown country" `Quick test_mix_unknown_country;
          qtest prop_mix_invariants;
        ] );
      ( "language",
        [
          Alcotest.test_case "primary" `Quick test_language_primary;
          Alcotest.test_case "afghanistan anchor" `Quick test_language_assign_afghanistan_anchor;
          Alcotest.test_case "deterministic" `Quick test_language_assign_deterministic;
          Alcotest.test_case "partner pull" `Quick test_language_partner_pull;
        ] );
      ( "world",
        [
          Alcotest.test_case "snapshot basics" `Quick test_world_snapshot_basics;
          Alcotest.test_case "deterministic" `Quick test_world_snapshot_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_world_seed_changes_world;
          Alcotest.test_case "small c is a typed error" `Quick test_world_small_c_typed_error;
          Alcotest.test_case "epoch churn" `Quick test_world_epoch_churn;
          Alcotest.test_case "domains carry tlds" `Quick test_world_domains_carry_tlds;
          Alcotest.test_case "tld numbers" `Quick test_world_tld_numbers;
          Alcotest.test_case "epoch names" `Quick test_world_epoch_names;
          Alcotest.test_case "whole-world digest" `Quick test_world_digest;
          Alcotest.test_case "snapshot digest" `Quick test_snapshot_digest;
        ] );
    ]
