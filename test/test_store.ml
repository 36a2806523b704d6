(* webdep_store: incremental metrics and the tallies under them.  The
   incremental tally/score paths return bit-identical values to a full
   recomputation under arbitrary churn and add/remove sequences, and the
   tally-based bootstrap matches the string path. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module Incremental = Webdep_store.Incremental
module D = Webdep.Dataset
module R = Webdep.Regionalization
module C = Webdep_emd.Centralization
module Rng = Webdep_stats.Rng
module Obs_metrics = Webdep_obs.Metrics

let counter name = Obs_metrics.value (Obs_metrics.counter name)
let sample = [ "US"; "DE"; "TH" ]
let world = lazy (World.create ~c:200 ~seed:77 ())
let ds23 = lazy (Measure.measure_all ~countries:sample (Lazy.force world))

let ds25 =
  lazy (Measure.measure_all ~epoch:World.May_2025 ~countries:sample (Lazy.force world))

(* --- incremental metrics under random churn ------------------------------ *)

(* Random churn: per country, remove a random subset of the 2023 sites
   and add a random subset of the 2025 ones, apply the delta to an
   Incremental.t seeded from 2023, and check every metric against a cold
   recomputation over the equivalently-edited dataset. *)
let churn_matches_full seed =
  let old_ds = Lazy.force ds23 and new_ds = Lazy.force ds25 in
  let rng = Rng.create seed in
  let inc = Incremental.create old_ds Hosting in
  let edited =
    List.map
      (fun cc ->
        let old_sites = (D.country_exn old_ds cc).D.sites in
        let new_sites = (D.country_exn new_ds cc).D.sites in
        (* Cap removals below the country size so the score stays defined. *)
        let removed =
          List.filteri (fun i _ -> i mod (2 + Rng.int rng 4) = 0) old_sites
        in
        let added = List.filteri (fun i _ -> i mod (2 + Rng.int rng 4) = 0) new_sites in
        Incremental.apply inc ~country:cc ~added ~removed;
        let keep = List.filter (fun s -> not (List.memq s removed)) old_sites in
        { D.country = cc; D.sites = keep @ added })
      sample
  in
  let cold = D.of_country_data edited in
  List.for_all
    (fun cc ->
      Incremental.score inc cc = Webdep.Metrics.centralization cold Hosting cc
      && Incremental.hhi inc cc = C.hhi (D.distribution cold Hosting cc)
      && Incremental.insularity inc cc = R.insularity cold Hosting cc)
    sample
  && Incremental.usage inc ~name:"Cloudflare" = R.usage_curve cold Hosting ~name:"Cloudflare"

let churn_qcheck =
  QCheck.Test.make ~count:25 ~name:"incremental metrics = full recompute under churn"
    QCheck.small_nat
    (fun seed -> churn_matches_full seed)

let test_incremental_cache_counters () =
  let old_ds = Lazy.force ds23 in
  let inc = Incremental.create old_ds Hosting in
  let full_before = counter "store.metrics.full_solve" in
  ignore (Incremental.score inc "US");
  Alcotest.(check int) "first read is a full solve" 1
    (counter "store.metrics.full_solve" - full_before);
  let hits_before = counter "store.metrics.cache_hits" in
  ignore (Incremental.score inc "US");
  Alcotest.(check int) "second read is cached" 1
    (counter "store.metrics.cache_hits" - hits_before);
  (* Removing and re-adding the same site keeps the support set: the next
     read must take the closed-form incremental path, not a full solve. *)
  let top_entity = fst (List.hd (D.counts_by_entity old_ds Hosting "US")) in
  let some_site =
    List.find (fun s -> s.D.hosting = Some top_entity) (D.country_exn old_ds "US").D.sites
  in
  Incremental.apply inc ~country:"US" ~added:[ some_site ] ~removed:[ some_site ];
  let incr_before = counter "store.metrics.incremental" in
  let before = Incremental.score inc "US" in
  Alcotest.(check int) "support-preserving delta recomputes incrementally" 1
    (counter "store.metrics.incremental" - incr_before);
  Alcotest.(check (float 0.0)) "identity delta leaves the score unchanged" before
    (Webdep.Metrics.centralization old_ds Hosting "US")

(* --- the tally's count histogram ------------------------------------------ *)

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One site labelled [e] in every layer; the domain is irrelevant to
   the tallies. *)
let site_of (e : D.entity) =
  {
    D.domain = "x.example";
    hosting = Some e;
    dns = Some e;
    ca = Some e;
    tld = e;
    hosting_geo = None;
    ns_geo = None;
    hosting_anycast = false;
    ns_anycast = false;
    language = None;
  }

(* Two pairs that join to the same string around a 0x1f byte are still
   two entities, for the tally as for the cold dataset. *)
let test_tally_pair_key () =
  let e1 = { D.name = "a\x1fb"; country = "c" } and e2 = { D.name = "a"; country = "b\x1fc" } in
  let t = D.Tally.create () in
  Alcotest.(check bool) "first pair is new" true (D.Tally.add t e1);
  Alcotest.(check bool) "second pair is new too" true (D.Tally.add t e2);
  Alcotest.(check int) "two entities" 2 (List.length (D.Tally.counts t));
  let cold = D.of_country_data [ { D.country = "c"; sites = [ site_of e1; site_of e2 ] } ] in
  let want = Webdep.Metrics.centralization cold Hosting "c" in
  Alcotest.(check bool) "incremental = cold" true
    (bits_eq (Incremental.score (Incremental.create cold Hosting) "c") want);
  Alcotest.(check bool) "tally = cold" true (bits_eq (D.Tally.score t) want)

(* Six entities: "a" and "b" each name two of them, so ties on count
   fall back to the country; counts stay small so they tie often. *)
let histogram_entities =
  [|
    { D.name = "a"; country = "US" };
    { D.name = "a"; country = "DE" };
    { D.name = "b"; country = "US" };
    { D.name = "b"; country = "FR" };
    { D.name = "c"; country = "US" };
    { D.name = "d"; country = "JP" };
  |]

(* After every add or remove, the tally's and a lockstep Incremental's
   𝒮/HHI equal the cold formulas over the tally's canonical counts, bit
   for bit, and Not_found comes exactly when nothing is tallied.
   Removing an absent entity is refused and changes nothing. *)
let histogram_matches_cold steps =
  let n = Array.length histogram_entities in
  let t = D.Tally.create () and model = Array.make n 0 in
  let inc =
    Incremental.create (D.of_country_data [ { D.country = "XX"; sites = [] } ]) Hosting
  in
  let step (i, add) =
    let e = histogram_entities.(i) in
    if add then begin
      ignore (D.Tally.add t e);
      Incremental.apply inc ~country:"XX" ~added:[ site_of e ] ~removed:[];
      model.(i) <- model.(i) + 1
    end
    else if model.(i) = 0 then (
      match D.Tally.remove t e with
      | _ -> failwith "removing an absent entity must be refused"
      | exception Invalid_argument _ -> ())
    else begin
      ignore (D.Tally.remove t e);
      Incremental.apply inc ~country:"XX" ~added:[] ~removed:[ site_of e ];
      model.(i) <- model.(i) - 1
    end
  in
  let consistent () =
    let counts = D.Tally.counts t in
    let same_counts =
      List.length counts = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 model
      && Array.for_all2
           (fun e c -> c = Option.value ~default:0 (List.assoc_opt e counts))
           histogram_entities model
    in
    let empty = Array.for_all (( = ) 0) model in
    let raises f = match f () with _ -> false | exception Not_found -> true in
    same_counts
    &&
    if empty then
      raises (fun () -> D.Tally.score t)
      && raises (fun () -> Incremental.score inc "XX")
      && raises (fun () -> Incremental.hhi inc "XX")
    else
      let dist = Webdep_emd.Dist.of_counts (Array.of_list (List.map snd counts)) in
      let s = D.Tally.score t in
      bits_eq s (C.score dist)
      && bits_eq (s +. (1.0 /. float_of_int (D.Tally.labelled t))) (C.hhi dist)
      && bits_eq (Incremental.score inc "XX") (C.score dist)
      && bits_eq (Incremental.hhi inc "XX") (C.hhi dist)
  in
  List.for_all
    (fun s ->
      step s;
      consistent ())
    steps

let histogram_qcheck =
  QCheck.Test.make ~count:300 ~name:"tally histogram = cold score under add/remove"
    QCheck.(
      make
        ~print:
          Print.(list (pair int (fun add -> if add then "add" else "remove")))
        Gen.(list_size (int_range 1 80) (pair (int_bound 5) bool)))
    histogram_matches_cold

(* --- tally-based bootstrap = string-path bootstrap ----------------------- *)

let test_centralization_interval_matches_string_path () =
  let ds = Lazy.force ds23 in
  let cc = "US" in
  (* The pre-interning implementation: materialize the label array, and
     per replicate hash-count it and score the name-sorted counts. *)
  let cd = D.country_exn ds cc in
  let labels =
    Array.of_list
      (List.filter_map
         (fun s -> Option.map (fun (e : D.entity) -> e.D.name) (D.entity_of s Hosting))
         cd.D.sites)
  in
  let statistic arr =
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun name ->
        Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
      arr;
    let counts =
      Hashtbl.fold (fun name k acc -> (name, k) :: acc) tbl []
      |> List.sort compare |> List.map snd |> Array.of_list
    in
    C.score (Webdep_emd.Dist.of_counts counts)
  in
  let rng = Rng.create 2024 in
  let lo, hi = Webdep_stats.Bootstrap.percentile_interval ~iterations:100 rng ~statistic labels in
  let lo', hi' =
    Webdep.Metrics.centralization_interval ~iterations:100 ~seed:2024 ds Hosting cc
  in
  Alcotest.(check bool) "tally-based interval bit-identical to string path" true
    (lo = lo' && hi = hi')

let () =
  Webdep_obs.Reporter.setup ~level:Logs.Error ();
  Alcotest.run "webdep_store"
    [
      ( "incremental",
        [
          QCheck_alcotest.to_alcotest churn_qcheck;
          Alcotest.test_case "cache/incremental/full-solve counters" `Quick
            test_incremental_cache_counters;
          Alcotest.test_case "tally keys (name, country) pairs" `Quick
            test_tally_pair_key;
          QCheck_alcotest.to_alcotest histogram_qcheck;
          Alcotest.test_case "centralization_interval = string path" `Quick
            test_centralization_interval_matches_string_path;
        ] );
    ]
