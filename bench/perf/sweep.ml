(* Workload "sweep": the paper's own scale, 150 countries x 10 000
   CrUX-style sites, measured cold (no store, no faults, flat
   resolution) on two lanes.  Per-site work dominates here, and the
   serve and epoch layers are bypassed entirely. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Scores = Webdep_reference.Paper_scores
open Common

let c = 10_000
let setups = 3

(* Paper fidelity: Tables 5-8 (per-country S, all four layers) must
   correlate at rho >= 0.98 with the measured scores. *)
let fidelity_ok ds =
  List.for_all
    (fun layer ->
      let ccs = D.countries ds in
      let measured = Array.of_list (List.map (Webdep.Metrics.centralization ds layer) ccs) in
      let paper = Scores.scores_in_country_order layer ccs in
      let rho = (Webdep_stats.Correlation.pearson measured paper).Webdep_stats.Correlation.rho in
      check (rho >= 0.98)
        (Printf.sprintf "Table %s: rho %.4f < 0.98" (Scores.layer_name layer) rho))
    Drive.layers

(* A handful of countries re-measured on the sequential path must give
   the same site records as the parallel sweep. *)
let sequential_ok ~seed world ds =
  let sample = Drive.sample_countries ~seed world 4 in
  let seq = Measure.measure_all ~jobs:1 ~countries:sample world in
  List.for_all
    (fun cc ->
      check (D.country_exn seq cc = D.country_exn ds cc)
        (Printf.sprintf "%s at --jobs 1 differs from the parallel sweep" cc))
    sample

(* Per-country latency comes from the library's own
   [measure_country.<CC>] span histograms in the obs registry: one
   observation per country per sweep. *)
let country_latencies world =
  List.map
    (fun cc -> Webdep_obs.Metrics.sum (Webdep_obs.Metrics.histogram ("span.measure_country." ^ cc)))
    (World.countries world)

let untraced ~seed ~seconds =
  let prepare () =
    time (fun () ->
        let w = World.create ~c ~seed () in
        World.prepare w (World.countries w);
        w)
  in
  let rec setup k acc =
    let w, dt = prepare () in
    if k <= 1 then (w, dt :: acc) else setup (k - 1) (dt :: acc)
  in
  let world, setup_times = setup setups [] in
  log "sweep: world c=%d prepared %d times: %s" c setups
    (String.concat " " (List.map (Printf.sprintf "%.2fs") setup_times));
  (* Whole sweeps until the next would overrun [seconds]; at least one. *)
  let started = now_s () in
  let cpu0 = cpu_s (Unix.getpid ()) in
  let rec loop acc =
    Webdep_obs.Registry.reset ();
    let sw, dt = time (fun () -> Measure.measure_sweep world) in
    let acc = (sw, dt, country_latencies world) :: acc in
    log "sweep: %d sites in %.2fs" (D.size sw.Measure.dataset) dt;
    if now_s () -. started +. dt <= float_of_int seconds then loop acc else acc
  in
  let runs = loop [] in
  let cpu = cpu_s (Unix.getpid ()) -. cpu0 in
  let last, _, _ = List.hd runs in
  let ds = last.Measure.dataset in
  let sites = List.fold_left (fun acc (sw, _, _) -> acc + D.size sw.Measure.dataset) 0 runs in
  let failed =
    List.fold_left
      (fun acc (sw, _, _) ->
        List.fold_left
          (fun acc (cv : Measure.country_coverage) -> acc + cv.Measure.tally.Webdep_faults.Degrade.failed)
          acc sw.Measure.coverage)
      0 runs
  in
  let lat = Array.of_list (List.concat_map (fun (_, _, l) -> l) runs) in
  let correct =
    let f = fidelity_ok ds in
    let s = sequential_ok ~seed world ds in
    f && s && check (failed = 0) (Printf.sprintf "%d sites failed" failed)
  in
  {
    correct;
    attempted = sites;
    failed;
    metrics =
      [
        m "setup_s" "s" (median setup_times);
        (* Sites per second of the process's CPU time over both lanes,
           which leaves out the time the host took a CPU away; lanes
           left idle show in the per-layer par.idle_ratio instead. *)
        m "throughput_per_s" "1/s" (ratio (float_of_int sites) cpu);
        m "latency_p50_ms" "ms" (1e3 *. quantile lat 0.5);
        m "peak_rss_mb" "MiB" (peak_rss_mb "self");
      ];
  }

let traced ~seed =
  let world = World.create ~c ~seed () in
  let ds = Drive.sweep ~epoch:World.May_2023 world in
  let same = Drive.same_as_measure_all world [ (World.May_2023, ds) ] in
  let sample = Drive.sample_countries ~seed world (Drive.replay_count world) in
  let sites, dns_hit_ratio = Drive.replay_sites world sample in
  let overhead = Drive.tracing_overhead world sample in
  let correct = same && fidelity_ok ds && sequential_ok ~seed world ds in
  {
    correct;
    attempted = D.size ds;
    failed = 0;
    metrics =
      Drive.layer_metrics ~sites ~dns_hit_ratio
      @ [
          m "trace.overhead_ratio" "ratio" overhead;
          m "sweep.country_ms_p90" "ms" (1e3 *. quantile (Drive.country_times ()) 0.9);
        ];
  }
