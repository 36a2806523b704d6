(* The tallies under the churn-log replay: [Replay]'s maintained
   per-(country, layer) tallies return bit-identical metrics to a full
   recomputation under arbitrary churn and add/remove sequences, its
   score cache counts what each read found, and the tally-based
   bootstrap matches the string path. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module Log = Webdep_epoch.Log
module Replay = Webdep_epoch.Replay
module D = Webdep.Dataset
module R = Webdep.Regionalization
module C = Webdep_emd.Centralization
module Rng = Webdep_stats.Rng
module Obs_metrics = Webdep_obs.Metrics

let counter name = Obs_metrics.value (Obs_metrics.counter name)
let sample = [ "US"; "DE"; "TH" ]
let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]
let world = lazy (World.create ~c:200 ~seed:77 ())
let ds23 = lazy (Measure.measure_all ~countries:sample (Lazy.force world))

let ds25 =
  lazy (Measure.measure_all ~epoch:World.May_2025 ~countries:sample (Lazy.force world))

(* A replay started at [base], never written to disk. *)
let start base =
  Replay.start { Log.meta = []; base_epoch = 0; base; events = []; head = 0; dropped = false }

(* --- replay metrics under random churn --------------------------------- *)

(* Random churn: per country, remove a random subset of the 2023 sites
   and add a random subset of the 2025 ones (those whose domain is not
   still present; every third arrives without a CA label, so the site
   total and the labelled total part), apply the delta as one epoch to
   a replay started from 2023, and check every metric of every layer
   against a cold recomputation over the equivalently-edited
   dataset. *)
let churn_matches_full seed =
  let old_ds = Lazy.force ds23 and new_ds = Lazy.force ds25 in
  let rng = Rng.create seed in
  let r = start (List.map (D.country_exn old_ds) sample) in
  let changes, edited =
    List.split
      (List.map
         (fun cc ->
           let old_sites = (D.country_exn old_ds cc).D.sites in
           let new_sites = (D.country_exn new_ds cc).D.sites in
           (* Cap removals below the country size so the score stays defined. *)
           let removed =
             List.filteri (fun i _ -> i mod (2 + Rng.int rng 4) = 0) old_sites
           in
           let keep = List.filter (fun s -> not (List.memq s removed)) old_sites in
           let kept = Hashtbl.create 64 in
           List.iter (fun (s : D.site) -> Hashtbl.replace kept s.D.domain ()) keep;
           let added =
             List.filteri (fun i _ -> i mod (2 + Rng.int rng 4) = 0) new_sites
             |> List.filter (fun (s : D.site) -> not (Hashtbl.mem kept s.D.domain))
             |> List.mapi (fun i (s : D.site) -> if i mod 3 = 0 then { s with D.ca = None } else s)
           in
           ( { Log.country = cc; removed = List.map (fun (s : D.site) -> s.D.domain) removed; added },
             { D.country = cc; D.sites = keep @ added } ))
         sample)
  in
  Replay.apply r { Log.epoch = 1; changes };
  let cold = D.of_country_data edited in
  List.for_all
    (fun layer ->
      List.for_all
        (fun cc ->
          Replay.score r layer cc = Webdep.Metrics.centralization cold layer cc
          && Replay.hhi r layer cc = C.hhi (D.distribution cold layer cc)
          && Replay.insularity r layer cc = R.insularity cold layer cc)
        sample)
    layers

let churn_qcheck =
  QCheck.Test.make ~count:25 ~name:"incremental metrics = full recompute under churn"
    QCheck.small_nat
    (fun seed -> churn_matches_full seed)

let test_incremental_cache_counters () =
  let old_ds = Lazy.force ds23 in
  let r = start [ D.country_exn old_ds "US" ] in
  let full_before = counter "store.metrics.full_solve" in
  ignore (Replay.score r Hosting "US");
  Alcotest.(check int) "first read is a full solve" 1
    (counter "store.metrics.full_solve" - full_before);
  let hits_before = counter "store.metrics.cache_hits" in
  ignore (Replay.score r Hosting "US");
  Alcotest.(check int) "second read is cached" 1
    (counter "store.metrics.cache_hits" - hits_before);
  (* Removing and re-adding the same site keeps the support set: the next
     read must take the closed-form incremental path, not a full solve. *)
  let top_entity = fst (List.hd (D.counts_by_entity old_ds Hosting "US")) in
  let some_site =
    List.find (fun s -> s.D.hosting = Some top_entity) (D.country_exn old_ds "US").D.sites
  in
  Replay.apply r
    {
      Log.epoch = 1;
      changes = [ { Log.country = "US"; removed = [ some_site.D.domain ]; added = [ some_site ] } ];
    };
  let incr_before = counter "store.metrics.incremental" in
  let before = Replay.score r Hosting "US" in
  Alcotest.(check int) "support-preserving delta recomputes incrementally" 1
    (counter "store.metrics.incremental" - incr_before);
  Alcotest.(check (float 0.0)) "identity delta leaves the score unchanged" before
    (Webdep.Metrics.centralization old_ds Hosting "US");
  (* Removing every site of the smallest provider shrinks the support
     set: the next read is a full solve again. *)
  let last = fst (List.hd (List.rev (D.counts_by_entity old_ds Hosting "US"))) in
  let gone =
    List.filter (fun s -> s.D.hosting = Some last) (D.country_exn old_ds "US").D.sites
  in
  Replay.apply r
    {
      Log.epoch = 2;
      changes =
        [ { Log.country = "US"; removed = List.map (fun s -> s.D.domain) gone; added = [] } ];
    };
  let full_before = counter "store.metrics.full_solve" in
  ignore (Replay.score r Hosting "US");
  Alcotest.(check int) "support-shrinking delta is a full solve" 1
    (counter "store.metrics.full_solve" - full_before)

(* --- the tally's count histogram ------------------------------------------ *)

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One site labelled [e] in every layer. *)
let site_of domain (e : D.entity) =
  {
    D.domain;
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
  let id1 = D.Tally.id t e1 and id2 = D.Tally.id t e2 in
  Alcotest.(check bool) "two ids" true (id1 <> id2);
  Alcotest.(check bool) "first pair is new" true (D.Tally.add_id t id1);
  Alcotest.(check bool) "second pair is new too" true (D.Tally.add_id t id2);
  let sites = [ site_of "a.example" e1; site_of "b.example" e2 ] in
  let cold = D.of_country_data [ { D.country = "c"; sites } ] in
  let want = Webdep.Metrics.centralization cold Hosting "c" in
  Alcotest.(check bool) "replay = cold" true
    (bits_eq (Replay.score (start [ { D.country = "c"; sites } ]) Hosting "c") want);
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

(* After every add or remove, the tally's and a lockstep replay's
   𝒮/HHI equal the cold formulas over the model's counts, bit for bit,
   and Not_found comes exactly when nothing is tallied.  Removing an
   absent entity is refused and changes nothing. *)
let histogram_matches_cold steps =
  let n = Array.length histogram_entities in
  let t = D.Tally.create () and model = Array.make n 0 in
  let ids = Array.map (D.Tally.id t) histogram_entities in
  let r = start [ { D.country = "XX"; sites = [] } ] in
  (* The live domains of each entity in the replay, and the next epoch. *)
  let live = Array.make n [] and epoch = ref 0 in
  let churn ~removed ~added =
    incr epoch;
    Replay.apply r { Log.epoch = !epoch; changes = [ { Log.country = "XX"; removed; added } ] }
  in
  let step (i, add) =
    let e = histogram_entities.(i) in
    if add then begin
      ignore (D.Tally.add_id t ids.(i));
      let domain = Printf.sprintf "s%d.example" !epoch in
      churn ~removed:[] ~added:[ site_of domain e ];
      live.(i) <- domain :: live.(i);
      model.(i) <- model.(i) + 1
    end
    else if model.(i) = 0 then (
      match D.Tally.remove_id t ids.(i) with
      | _ -> failwith "removing an absent entity must be refused"
      | exception Invalid_argument _ -> ())
    else begin
      ignore (D.Tally.remove_id t ids.(i));
      churn ~removed:[ List.hd live.(i) ] ~added:[];
      live.(i) <- List.tl live.(i);
      model.(i) <- model.(i) - 1
    end
  in
  let consistent () =
    let sum f = Array.fold_left ( + ) 0 (Array.mapi f model) in
    let same_counts =
      D.Tally.labelled t = sum (fun _ k -> k)
      && D.Tally.home_count t "US"
         = sum (fun i k -> if histogram_entities.(i).D.country = "US" then k else 0)
    in
    let raises f = match f () with _ -> false | exception Not_found -> true in
    same_counts
    &&
    if Array.for_all (( = ) 0) model then
      raises (fun () -> D.Tally.score t)
      && raises (fun () -> Replay.score r Hosting "XX")
      && raises (fun () -> Replay.hhi r Hosting "XX")
    else
      let counts = List.sort (fun a b -> Int.compare b a) (Array.to_list model) in
      let dist = Webdep_emd.Dist.of_counts (Array.of_list counts) in
      let s = D.Tally.score t in
      bits_eq s (C.score dist)
      && bits_eq (s +. (1.0 /. float_of_int (D.Tally.labelled t))) (C.hhi dist)
      && bits_eq (Replay.score r Hosting "XX") (C.score dist)
      && bits_eq (Replay.hhi r Hosting "XX") (C.hhi dist)
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
