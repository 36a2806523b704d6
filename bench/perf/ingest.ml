(* Workload "epoch_ingest": the write side of the epoch churn log and the
   per-layer incremental tallies, which the query workloads only read.
   A c=300 May-2023 baseline takes 200 synthetic epochs at 2% churn
   (replacement sites drawn from the May-2025 sweep), each appended to
   the log with its fsync, applied to the replay state and rescored on
   all four layers; then a warm start from the log and a compaction. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Log = Webdep_epoch.Log
module Replay = Webdep_epoch.Replay
module Sink = Webdep_obs.Sink
open Common

let c = 300
let epochs = 200
let churn = 0.02
let keep_last = 4
let setups = 3
let span = Tracing.span

let loaded path =
  match Log.load ~path with
  | Log.Loaded log -> log
  | Log.Absent | Log.Mismatch _ -> failwith ("epoch log unusable: " ^ path)

let counter = Webdep_obs.Metrics.counter
let m_incremental = counter "store.metrics.incremental"
let m_full = counter "store.metrics.full_solve"

(* Every replayed score must equal, bit for bit, a cold recomputation
   over the materialized head. *)
let scores_match ~what cold r =
  List.for_all
    (fun (layer, rows) ->
      List.for_all
        (fun (cc, s) ->
          check
            (Int64.equal (Int64.bits_of_float (Replay.score r layer cc)) (Int64.bits_of_float s))
            (Printf.sprintf "%s: %s score of %s differs from the cold recompute" what
               (Webdep_reference.Paper_scores.layer_name layer) cc))
        rows)
    cold

let p50_ms name =
  1e3
  *. quantile
       (Array.of_list (List.map (fun (ev : Sink.event) -> ev.Sink.duration_s) (Tracing.named name)))
       0.5

let run ~seed ~seconds ~traced =
  let path = out_path "ingest" ^ ".log" in
  let compact_path = out_path "ingest" ^ ".compact.log" in
  (* Set-up, timed: measure the baseline and create the log.  The traced
     run builds it once, through the driven sweep. *)
  let setup () =
    time (fun () ->
        let world = World.create ~c ~seed () in
        let ds23, verified =
          if traced then
            let ds = Drive.sweep ~epoch:World.May_2023 world in
            (ds, Drive.same_as_measure_all world [ (World.May_2023, ds) ])
          else (Measure.measure_all world, true)
        in
        let base = List.map (D.country_exn ds23) (D.countries ds23) in
        Log.create ~path ~base_epoch:0 ~base ();
        (world, base, verified))
  in
  let rec repeat k acc =
    let x, dt = setup () in
    if k <= 1 || traced then (x, dt :: acc) else repeat (k - 1) (dt :: acc)
  in
  let (world, base, world_ok), setup_times = repeat setups [] in
  (* Untimed: the donor sweep and the synthetic epochs. *)
  let ds25 =
    if traced then Drive.sweep ~epoch:World.May_2025 world
    else Measure.measure_all ~epoch:World.May_2025 world
  in
  let donors =
    List.map (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites)) (D.countries ds25)
  in
  let events = Webdep_epoch.Synth.generate ~seed ~fraction:churn ~epochs ~base_epoch:0 ~base ~donors in
  (* Ingest on one domain (the rest of the run keeps two): with two,
     every minor collection and every parallel rescore waits for both
     CPUs, so a stall of either, which the shared host causes often,
     lands in the epoch's latency. *)
  Webdep_par.set_jobs 1;
  (* Ingest every epoch into a fresh log, one epoch at a time; rounds
     repeat from the baseline until [seconds] of ingest have run. *)
  let failed = ref 0 in
  let incremental0 = Webdep_obs.Metrics.value m_incremental
  and full0 = Webdep_obs.Metrics.value m_full in
  let mw0 = Gc.minor_words () in
  let round () =
    Log.create ~path ~base_epoch:0 ~base ();
    let r = Replay.start { Log.meta = []; base_epoch = 0; base; events = []; head = 0; dropped = false } in
    let cpu0 = cpu_s (Unix.getpid ()) in
    let samples =
      List.map
        (fun (ev : Log.event) ->
          let t0 = now_s () in
          (try
             span "epoch.log.append" (fun () -> Log.append ~path ~epoch:ev.Log.epoch ev.Log.changes);
             span "epoch.replay.apply" (fun () -> Replay.apply r ev);
             span "epoch.replay.scores" (fun () ->
                 List.iter (fun l -> ignore (Replay.scores r l)) Drive.layers)
           with e ->
             incr failed;
             log "epoch %d failed: %s" ev.Log.epoch (Printexc.to_string e));
          now_s () -. t0)
        events
    in
    (r, samples, cpu_s (Unix.getpid ()) -. cpu0)
  in
  let rec rounds spent cpu acc =
    let r, samples, round_cpu = round () in
    log "ingest round: p50 %.2f ms" (1e3 *. quantile (Array.of_list samples) 0.5);
    let spent = spent +. List.fold_left ( +. ) 0.0 samples and cpu = cpu +. round_cpu in
    if spent < float_of_int seconds then rounds spent cpu (samples @ acc) else (r, cpu, samples @ acc)
  in
  let r, cpu, samples = rounds 0.0 0.0 [] in
  Webdep_par.set_jobs 2;
  let samples = Array.of_list samples in
  let ingested = Array.length samples in
  log "ingest: %d epochs in %d rounds" ingested (ingested / epochs);
  let ingest_mw = Gc.minor_words () -. mw0 in
  let incremental = float_of_int (Webdep_obs.Metrics.value m_incremental - incremental0) in
  let full = float_of_int (Webdep_obs.Metrics.value m_full - full0) in
  let log_bytes = file_size path in
  (* Warm start from the log, then compaction. *)
  let (log, warm), warm_start_s =
    time (fun () ->
        let log = span "epoch.log.load" (fun () -> loaded path) in
        (log, span "epoch.replay.replay" (fun () -> Replay.replay log)))
  in
  let compacted = span "epoch.replay.compact" (fun () -> Replay.compact log ~keep_last) in
  span "epoch.log.write" (fun () -> Log.write ~path:compact_path compacted);
  let from_compacted = Replay.replay (loaded compact_path) in
  let head = D.of_country_data (Replay.materialize r) in
  let cold = List.map (fun l -> (l, Webdep.Metrics.all_scores head l)) Drive.layers in
  let correct =
    world_ok
    && check (log.Log.head = epochs) "the warm-started log lost epochs"
    && scores_match ~what:"ingest" cold r
    && scores_match ~what:"warm start" cold warm
    && scores_match ~what:"compacted" cold from_compacted
  in
  remove_if_exists path;
  remove_if_exists compact_path;
  let metrics =
    if not traced then
      [
        m "setup_s" "s" (median setup_times);
        (* Epochs per second of the process's CPU time while ingesting,
           which leaves out the time the host took the CPU away. *)
        m "throughput_per_s" "1/s" (ratio (float_of_int ingested) cpu);
        m "latency_p50_ms" "ms" (1e3 *. quantile samples 0.5);
        m "peak_rss_mb" "MiB" (peak_rss_mb "self");
      ]
    else
      let countries = Drive.sample_countries ~seed world (Drive.replay_count world) in
      let sites, dns_hit_ratio = Drive.replay_sites world countries in
      Drive.layer_metrics ~sites ~dns_hit_ratio
      @ [
          m "trace.overhead_ratio" "ratio" (Drive.tracing_overhead world countries);
          m "epoch.ingest_ms_p95" "ms" (1e3 *. quantile samples 0.95);
          m "epoch.log.append_ms_p50" "ms" (p50_ms "epoch.log.append");
          m "epoch.replay.apply_ms_p50" "ms" (p50_ms "epoch.replay.apply");
          m "epoch.replay.scores_ms_p50" "ms" (p50_ms "epoch.replay.scores");
          m "store.incremental_ratio" "ratio" (ratio incremental (incremental +. full));
          m "epoch.log.load_s" "s" (Tracing.total_s "epoch.log.load");
          m "epoch.replay.replay_s" "s" (Tracing.total_s "epoch.replay.replay");
          m "epoch.warm_start_s" "s" warm_start_s;
          m "epoch.replay.compact_s" "s" (Tracing.total_s "epoch.replay.compact");
          m "epoch.log.write_s" "s" (Tracing.total_s "epoch.log.write");
          m "epoch.log_mb" "MiB" (float_of_int log_bytes /. 1048576.0);
          m "epoch.log_bytes_per_epoch" "bytes" (float_of_int log_bytes /. float_of_int epochs);
          m "epoch.ingest_minor_mw_per_epoch" "Mw" (ingest_mw /. 1e6 /. float_of_int ingested);
        ]
  in
  { correct; attempted = ingested; failed = !failed; metrics }
