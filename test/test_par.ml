(* webdep_par: the domain pool's combinators (order, exceptions, nesting),
   domain-safety of the obs metrics under concurrent hammering, and the
   headline guarantee — measure_all returns an identical dataset at any
   jobs value. *)

module Par = Webdep_par
module Pool = Webdep_par.Pool
module Metrics = Webdep_obs.Metrics
module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset

let check = Alcotest.check

(* --- pool combinators --------------------------------------------------- *)

let test_map_matches_list_map () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 1000 Fun.id in
      check (Alcotest.list Alcotest.int) "map = List.map"
        (List.map (fun x -> (x * 7) + 1) xs)
        (Pool.map p (fun x -> (x * 7) + 1) xs);
      check (Alcotest.list Alcotest.int) "empty" [] (Pool.map p succ []);
      check (Alcotest.list Alcotest.int) "singleton" [ 42 ] (Pool.map p succ [ 41 ]))

let test_map_array_order () =
  Pool.with_pool ~jobs:3 (fun p ->
      let arr = Array.init 500 string_of_int in
      let out = Pool.map_array p (fun s -> s ^ "!") arr in
      check Alcotest.int "length" 500 (Array.length out);
      Array.iteri
        (fun i s -> check Alcotest.string "slot order" (string_of_int i ^ "!") s)
        out)

let test_parallel_for_covers_all () =
  Pool.with_pool ~jobs:4 (fun p ->
      let hits = Array.init 300 (fun _ -> Atomic.make 0) in
      Pool.parallel_for p ~n:300 (fun i -> ignore (Atomic.fetch_and_add hits.(i) 1));
      Array.iteri
        (fun i h -> check Alcotest.int (Printf.sprintf "index %d once" i) 1 (Atomic.get h))
        hits)

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun p ->
      (match Pool.map p (fun x -> if x = 37 then failwith "boom" else x) (List.init 100 Fun.id) with
      | _ -> Alcotest.fail "expected exception"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg);
      (* The pool survives a failed run. *)
      check (Alcotest.list Alcotest.int) "pool still works" [ 2; 3 ]
        (Pool.map p succ [ 1; 2 ]))

let test_nested_map_falls_back () =
  Pool.with_pool ~jobs:4 (fun p ->
      let out =
        Pool.map p
          (fun i ->
            (* A nested combinator on the same pool must run sequentially
               rather than deadlock waiting for busy lanes. *)
            List.fold_left ( + ) 0 (Pool.map p (fun j -> (i * 10) + j) [ 0; 1; 2 ]))
          (List.init 50 Fun.id)
      in
      check (Alcotest.list Alcotest.int) "nested results"
        (List.init 50 (fun i -> (3 * 10 * i) + 3))
        out)

let test_jobs_one_is_sequential () =
  Pool.with_pool ~jobs:1 (fun p ->
      (* No worker domains: observable through side-effect ordering. *)
      let trace = ref [] in
      let out = Pool.map p (fun i -> trace := i :: !trace; i) [ 1; 2; 3; 4 ] in
      check (Alcotest.list Alcotest.int) "in order" [ 4; 3; 2; 1 ] !trace;
      check (Alcotest.list Alcotest.int) "result" [ 1; 2; 3; 4 ] out)

let qcheck_map_equals_list_map =
  QCheck.Test.make ~name:"Par.map f = List.map f for any list and jobs" ~count:30
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      Par.map ~jobs (fun x -> (x * 3) - 1) xs = List.map (fun x -> (x * 3) - 1) xs)

(* --- domain-safety of the metrics registry ------------------------------ *)

let test_metrics_hammer () =
  (* Raw Domain.spawn (not the pool): 4 domains each bump a counter and
     observe into a histogram; exact totals prove no update was lost. *)
  let cnt = Metrics.counter "test.par.hammer_counter" in
  let h = Metrics.histogram "test.par.hammer_hist" in
  let per_domain = 25_000 in
  let n_domains = 4 in
  let body () =
    for _ = 1 to per_domain do
      Metrics.incr cnt;
      Metrics.observe h 1.0
    done
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn body) in
  List.iter Domain.join domains;
  check Alcotest.int "counter exact" (n_domains * per_domain) (Metrics.value cnt);
  check Alcotest.int "histogram count exact" (n_domains * per_domain) (Metrics.count h);
  check (Alcotest.float 1e-6) "histogram sum exact"
    (float_of_int (n_domains * per_domain))
    (Metrics.sum h);
  check (Alcotest.float 1e-6) "mean" 1.0 (Metrics.mean h);
  check (Alcotest.option (Alcotest.float 0.0)) "min" (Some 1.0) (Metrics.min_value h);
  check (Alcotest.option (Alcotest.float 0.0)) "max" (Some 1.0) (Metrics.max_value h)

let test_concurrent_registration () =
  (* Creating the same metric from several domains must yield one
     physical counter, not racing duplicates. *)
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let c = Metrics.counter "test.par.shared_by_name" in
            Metrics.incr c))
  in
  List.iter Domain.join domains;
  check Alcotest.int "all increments on one counter" 4
    (Metrics.value (Metrics.counter "test.par.shared_by_name"))

(* --- determinism of the parallel pipeline ------------------------------- *)

let entity_eq (a : D.entity option) b = a = b

let country_data_equal (a : D.country_data) (b : D.country_data) =
  a.D.country = b.D.country
  && List.length a.D.sites = List.length b.D.sites
  && List.for_all2
       (fun (x : D.site) (y : D.site) ->
         x.D.domain = y.D.domain
         && entity_eq x.D.hosting y.D.hosting
         && entity_eq x.D.dns y.D.dns
         && entity_eq x.D.ca y.D.ca
         && x.D.tld = y.D.tld
         && x.D.hosting_geo = y.D.hosting_geo
         && x.D.ns_geo = y.D.ns_geo
         && x.D.hosting_anycast = y.D.hosting_anycast
         && x.D.ns_anycast = y.D.ns_anycast
         && x.D.language = y.D.language)
       a.D.sites b.D.sites

let test_measure_all_jobs_invariant () =
  let countries = [ "US"; "RU"; "BR"; "PT"; "JP" ] in
  (* Two fresh worlds with the same seed: the jobs=4 sweep must produce
     exactly the jobs=1 dataset, including shared-state effects like
     geolocation and anycast. *)
  let ds1 =
    Measure.measure_all ~countries ~jobs:1 (World.create ~c:120 ~seed:77 ())
  in
  let ds4 =
    Measure.measure_all ~countries ~jobs:4 (World.create ~c:120 ~seed:77 ())
  in
  List.iter
    (fun cc ->
      Alcotest.(check bool)
        (Printf.sprintf "%s identical at jobs 1 and 4" cc)
        true
        (country_data_equal (D.country_exn ds1 cc) (D.country_exn ds4 cc)))
    countries

(* The c=2000 world both scale tests measure, built once. *)
let world_2000 = lazy (World.create ~c:2000 ~seed:41 ())

let test_interner_jobs_invariant_at_scale () =
  (* c=2000 over four countries: the dataset's interned entity pool —
     ids in first-intern order, not just the decoded string view — must
     be identical whether the sweep ran on 1 or 4 domains (ids are
     assigned during the sequential fold, so scheduling must never leak
     into them), and stable across repeat runs of the same world. *)
  let countries = [ "US"; "DE"; "BR"; "JP" ] in
  let world = Lazy.force world_2000 in
  let sweep jobs = Measure.measure_all ~countries ~jobs world in
  let ds1 = sweep 1 and ds4 = sweep 4 in
  check Alcotest.int "pool size" (D.Compact.entity_count ds1) (D.Compact.entity_count ds4);
  let e1 = D.Compact.entities ds1 and e4 = D.Compact.entities ds4 in
  Array.iteri
    (fun i (e : D.entity) ->
      if e4.(i) <> e then
        Alcotest.fail
          (Printf.sprintf "entity id %d differs across jobs: %s/%s vs %s/%s" i e.D.name
             e.D.country e4.(i).D.name e4.(i).D.country))
    e1;
  let ds4' = sweep 4 in
  check Alcotest.int "stable pool size" (D.Compact.entity_count ds4)
    (D.Compact.entity_count ds4');
  Alcotest.(check bool) "stable ids on re-measure" true
    (D.Compact.entities ds4 = D.Compact.entities ds4')

(* The sweep's lanes write world ids and its fold remaps them; the
   string path measures records and interns them.  Both must build the
   same dataset, interner ids and all, compared structurally before
   anything decodes a country.  At c=2000, AM, GE, KG and MD mint
   domains without a dot, whose TLD has no world id. *)
let test_id_path_equals_string_path () =
  let countries = [ "US"; "JP"; "AM"; "GE"; "KG"; "MD" ] in
  let world = Lazy.force world_2000 in
  let strings =
    let b = D.builder () in
    List.iter
      (fun cc -> D.builder_add b (Measure.measure_snapshot world (World.snapshot world cc)))
      countries;
    D.builder_finish b
  in
  List.iter
    (fun jobs ->
      let ds = Measure.measure_all ~countries ~jobs world in
      check Alcotest.bool (Printf.sprintf "--jobs %d: same dataset" jobs) true (ds = strings);
      check Alcotest.bool
        (Printf.sprintf "--jobs %d: same entity pool" jobs)
        true
        (D.Compact.entities ds = D.Compact.entities strings))
    [ 1; 2; 4 ];
  (* Half the countries resumed from a checkpoint, between countries
     measured on a lane: both arrive as world ids, AM's and KG's dotless
     TLDs in their [w_other_tlds]. *)
  List.iter
    (fun jobs ->
      let path = Filename.temp_file "webdep_idpath" ".ckpt" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      ignore (Measure.measure_sweep ~countries:[ "US"; "AM"; "KG" ] ~jobs ~checkpoint:path world);
      let sw = Measure.measure_sweep ~countries ~jobs ~checkpoint:path world in
      let at what = Printf.sprintf "--jobs %d: %s" jobs what in
      check (Alcotest.list Alcotest.bool) (at "every other country resumed")
        [ true; false; true; false; true; false ]
        (List.map (fun (cv : Measure.country_coverage) -> cv.Measure.resumed) sw.Measure.coverage);
      check Alcotest.bool (at "resumed + measured = cold") true (sw.Measure.dataset = strings))
    [ 1; 2; 4 ];
  let dotless =
    List.filter
      (fun ((e : D.entity), _) -> e.D.name.[0] <> '.')
      (D.counts_by_entity strings D.Tld "KG")
  in
  check Alcotest.bool "KG has dotless TLD entities" true (dotless <> []);
  List.iter
    (fun ((e : D.entity), _) -> check Alcotest.string "dotless TLD homed in US" "US" e.D.country)
    dotless

(* Order freedom: a world's bytes depend on (seed, c, geolocation
   accuracy) alone.  One (seed, c, epoch, countries) measured after four
   call histories must give byte-identical datasets, and byte-identical
   churn logs written from them.  Geolocation verdicts are what a
   history-dependent world would move first. *)
let order_countries = [ "US"; "RU"; "BR"; "DE" ]

let measure_after history =
  let world = World.create ~c:300 ~seed:2024 () in
  let sweep ?(jobs = 1) epoch = Measure.measure_all ~epoch ~countries:order_countries ~jobs world in
  let ds23, ds25 =
    match history with
    | `Fresh -> (sweep World.May_2023, sweep World.May_2025)
    | `Others_first ->
        ignore (Measure.measure_all ~countries:[ "FR"; "JP"; "IN" ] ~jobs:1 world);
        (sweep World.May_2023, sweep World.May_2025)
    | `Epoch_2025_first ->
        let ds25 = sweep World.May_2025 in
        (sweep World.May_2023, ds25)
    | `Jobs_2 -> (sweep ~jobs:2 World.May_2023, sweep ~jobs:2 World.May_2025)
  in
  let bytes ds =
    let b = Buffer.create (1 lsl 16) in
    List.iter
      (fun cc ->
        Buffer.add_string b cc;
        Webdep_faults.Segment.add_sites b (D.country_exn ds cc).D.sites)
      order_countries;
    Buffer.contents b
  in
  let path = Filename.temp_file "webdep_order" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let base = List.map (D.country_exn ds23) order_countries in
  let donors =
    List.map (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites)) order_countries
  in
  Webdep_epoch.Log.create ~path ~base_epoch:0 ~base ();
  List.iter
    (fun (ev : Webdep_epoch.Log.event) ->
      Webdep_epoch.Log.append ~path ~epoch:ev.Webdep_epoch.Log.epoch ev.Webdep_epoch.Log.changes)
    (Webdep_epoch.Synth.generate ~seed:2024 ~fraction:0.02 ~epochs:4 ~base_epoch:0 ~base ~donors);
  (bytes ds23, bytes ds25, In_channel.with_open_bin path In_channel.input_all)

let test_world_order_free () =
  let fresh23, fresh25, fresh_log = measure_after `Fresh in
  List.iter
    (fun (name, history) ->
      let ds23, ds25, log = measure_after history in
      check Alcotest.bool (name ^ ": 2023 dataset bytes") true (ds23 = fresh23);
      check Alcotest.bool (name ^ ": 2025 dataset bytes") true (ds25 = fresh25);
      check Alcotest.bool (name ^ ": churn log bytes") true (log = fresh_log))
    [ ("FR/JP/IN first", `Others_first); ("May 2025 first", `Epoch_2025_first);
      ("--jobs 2", `Jobs_2) ]

let test_bootstrap_jobs_invariant () =
  let rng () = Webdep_stats.Rng.create 31 in
  let data = Array.init 400 (fun i -> float_of_int (i mod 23)) in
  let stat arr = Array.fold_left ( +. ) 0.0 arr /. float_of_int (Array.length arr) in
  let lo1, hi1 =
    Webdep_stats.Bootstrap.percentile_interval ~iterations:200 ~jobs:1 (rng ()) ~statistic:stat data
  in
  let lo4, hi4 =
    Webdep_stats.Bootstrap.percentile_interval ~iterations:200 ~jobs:4 (rng ()) ~statistic:stat data
  in
  check (Alcotest.float 0.0) "lo identical" lo1 lo4;
  check (Alcotest.float 0.0) "hi identical" hi1 hi4;
  let se1 = Webdep_stats.Bootstrap.standard_error ~jobs:1 (rng ()) ~statistic:stat data in
  let se4 = Webdep_stats.Bootstrap.standard_error ~jobs:4 (rng ()) ~statistic:stat data in
  check (Alcotest.float 0.0) "stderr identical" se1 se4

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "webdep_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "map_array keeps order" `Quick test_map_array_order;
          Alcotest.test_case "parallel_for covers all" `Quick test_parallel_for_covers_all;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "nested map falls back" `Quick test_nested_map_falls_back;
          Alcotest.test_case "jobs=1 sequential" `Quick test_jobs_one_is_sequential;
          qtest qcheck_map_equals_list_map;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "4-domain hammer, exact totals" `Quick test_metrics_hammer;
          Alcotest.test_case "concurrent registration" `Quick test_concurrent_registration;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "measure_all jobs-invariant" `Slow test_measure_all_jobs_invariant;
          Alcotest.test_case "interner ids jobs-invariant at c=2000" `Slow
            test_interner_jobs_invariant_at_scale;
          Alcotest.test_case "id path builds the string path's dataset" `Slow
            test_id_path_equals_string_path;
          Alcotest.test_case "order-free world" `Quick test_world_order_free;
          Alcotest.test_case "bootstrap jobs-invariant" `Quick test_bootstrap_jobs_invariant;
        ] );
    ]
