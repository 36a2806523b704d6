(* The measurement sweep driven step by step from public calls, so the
   traced run can time each layer: [World.prepare], then a
   [Webdep_par.map_fold] of [World.snapshot] -> [Measure.measure_snapshot]
   folded through [Dataset.builder_add].  These are the steps
   [Measure.measure_sweep] takes when it has no store, checkpoint or
   fault plan, so the dataset must equal [Measure.measure_all]'s; the
   sweep workload checks that.  Every workload builds its world this way
   in its traced run, which is why the world-building layer metrics have
   values on all of them. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module Resolver = Webdep_dnssim.Resolver
module Internet = Webdep_netsim.Internet
module D = Webdep.Dataset

let span = Tracing.span
let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

let sweep ?epoch world =
  span "sweep" (fun () ->
      let countries = World.countries world in
      span "worldgen.prepare" (fun () -> World.prepare world ?epoch countries);
      let b = D.builder () in
      span "par.map_fold" (fun () ->
          Webdep_par.map_fold
            (fun cc ->
              let attrs = [ ("country", cc) ] in
              let snap =
                span "worldgen.snapshot" ~attrs (fun () -> World.snapshot world ?epoch cc)
              in
              span "pipeline.measure_snapshot" ~attrs (fun () ->
                  Measure.measure_snapshot world snap))
            ~init:()
            ~fold:(fun () data -> span "core.builder_add" (fun () -> D.builder_add b data))
            countries);
      let ds = span "core.builder_finish" (fun () -> D.builder_finish b) in
      ignore (span "core.scores" (fun () -> List.map (Webdep.Metrics.all_scores ds) layers));
      ds)

(* Re-measure each traced epoch through [Measure.measure_all] with
   tracing off.  Both datasets come out of the same sequential builder
   fold, so equal site records give structurally equal values — compared
   before anything decodes a country into its memo. *)
let same_as_measure_all world runs =
  Tracing.enabled := false;
  let same = List.for_all (fun (epoch, ds) -> Measure.measure_all ~epoch world = ds) runs in
  Tracing.enabled := true;
  Common.check same "driven sweep differs from Measure.measure_all"

(* What the spans cost: snapshot + measure of each sample country with
   tracing on and off, alternating which goes first, on a world the sweep
   has already warmed.  Returns traced time over untraced time. *)
let tracing_overhead ?epoch world ccs =
  let once traced cc =
    Tracing.enabled := traced;
    let (), dt =
      Common.time (fun () ->
          let snap = span "trace.probe.snapshot" (fun () -> World.snapshot world ?epoch cc) in
          ignore (span "trace.probe.measure" (fun () -> Measure.measure_snapshot world snap)))
    in
    Tracing.enabled := true;
    dt
  in
  let on = ref 0.0 and off = ref 0.0 in
  List.iteri
    (fun i cc ->
      let first = i mod 2 = 0 in
      let a = once first cc in
      let b = once (not first) cc in
      let t, u = if first then (a, b) else (b, a) in
      on := !on +. t;
      off := !off +. u)
    ccs;
  Common.ratio !on !off

(* Seconds each country spent in snapshot + measure on its lane, from the
   spans of the driven sweeps so far. *)
let country_times () =
  let per = Hashtbl.create 256 in
  List.iter
    (fun (ev : Webdep_obs.Sink.event) ->
      match (ev.Webdep_obs.Sink.name, List.assoc_opt "country" ev.Webdep_obs.Sink.attrs) with
      | ("worldgen.snapshot" | "pipeline.measure_snapshot"), Some cc ->
          Hashtbl.replace per cc
            (ev.Webdep_obs.Sink.duration_s +. Option.value ~default:0.0 (Hashtbl.find_opt per cc))
      | _ -> ())
    (Tracing.events ());
  Array.of_seq (Hashtbl.to_seq_values per)

(* Deterministic sample of [k] countries for per-site replays and the
   sequential re-measurement check. *)
let sample_countries ~seed world k =
  let rng = Webdep_stats.Rng.create seed in
  let arr = Array.of_list (World.countries world) in
  for i = Array.length arr - 1 downto 1 do
    let j = Webdep_stats.Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  List.sort compare (Array.to_list (Array.sub arr 0 (min k (Array.length arr))))

let dns_cache_counters =
  List.map Webdep_obs.Metrics.counter
    [ "dns.cache.response.hits"; "dns.cache.glue.hits" ]

let dns_cache_misses =
  List.map Webdep_obs.Metrics.counter
    [ "dns.cache.response.misses"; "dns.cache.glue.misses" ]

let total cs = List.fold_left (fun acc c -> acc + Webdep_obs.Metrics.value c) 0 cs

(* Replay every site of the given countries through each simulator
   layer the pipeline calls per site, one layer at a time, so each gets
   its own span: DNS resolution (with the pipeline's per-snapshot
   cache), AS-org / geolocation / anycast lookups, the TLS handshake plus
   CA-owner lookup, and language detection.  Returns the sites replayed
   and the DNS cache hit ratio. *)
let replay_sites ?epoch world ccs =
  let internet = World.internet world in
  let ca_db = World.ca_db world in
  let hits0 = total dns_cache_counters and misses0 = total dns_cache_misses in
  let sites = ref 0 in
  List.iter
    (fun cc ->
      let attrs = [ ("country", cc) ] in
      let snap = World.snapshot world ?epoch cc in
      let domains = Array.of_list (Webdep_crux.Toplist.domains snap.World.toplist) in
      sites := !sites + Array.length domains;
      let cache = Resolver.make_cache () in
      let ips =
        span "dnssim.resolve" ~attrs (fun () ->
            Array.map
              (fun d ->
                match
                  Resolver.resolve ~cache snap.World.zones ~vantage:Measure.default_vantage d
                with
                | Ok { Resolver.a; ns_addrs; _ } ->
                    (List.nth_opt a 0, List.nth_opt ns_addrs 0)
                | Error _ -> (None, None))
              domains)
      in
      let lookup ip =
        ignore (Internet.org_of_addr internet ip);
        ignore (Internet.geolocate internet ip);
        ignore (Internet.is_anycast_addr internet ip)
      in
      span "netsim.lookup" ~attrs (fun () ->
          Array.iter
            (fun (h, n) ->
              Option.iter lookup h;
              Option.iter lookup n)
            ips);
      span "tlssim.handshake" ~attrs (fun () ->
          Array.iteri
            (fun i (h, _) ->
              Option.iter
                (fun addr ->
                  match Webdep_tlssim.Handshake.handshake snap.World.tls ~addr ~sni:domains.(i) with
                  | Some cert ->
                      ignore
                        (Webdep_tlssim.Ca.owner_of_issuer ca_db
                           cert.Webdep_tlssim.Cert.issuer_cn)
                  | None -> ())
                h)
            ips);
      span "pipeline.langdetect" ~attrs (fun () ->
          Array.iteri
            (fun i (h, _) ->
              if Option.is_some h then
                Option.iter
                  (fun truth -> ignore (Webdep_pipeline.Langdetect.detect ~domain:domains.(i) truth))
                  (Hashtbl.find_opt snap.World.content_language domains.(i)))
            ips))
    ccs;
  let hits = total dns_cache_counters - hits0 and misses = total dns_cache_misses - misses0 in
  (!sites, Common.ratio (float_of_int hits) (float_of_int (hits + misses)))

(* Countries to replay: enough for about 20k sites at this world size. *)
let replay_count world = max 4 (min 150 ((20_000 + World.c world - 1) / World.c world))

(* The world-building layer metrics, from the spans recorded so far. *)
let layer_metrics ~sites ~dns_hit_ratio =
  let open Common in
  let t = Tracing.total_s in
  let jobs = float_of_int (Webdep_par.jobs ()) in
  let on_lane0 name =
    List.fold_left
      (fun acc (ev : Webdep_obs.Sink.event) ->
        if ev.Webdep_obs.Sink.lane = 0 then acc +. ev.Webdep_obs.Sink.duration_s else acc)
      0.0 (Tracing.named name)
  in
  let busy = t "worldgen.snapshot" +. t "pipeline.measure_snapshot" in
  let busy0 = on_lane0 "worldgen.snapshot" +. on_lane0 "pipeline.measure_snapshot" in
  let map_fold = t "par.map_fold" in
  let builder = t "core.builder_add" +. t "core.builder_finish" in
  let per_site name = ratio (t name *. 1e9) (float_of_int sites) in
  [
    m "worldgen.prepare_s" "s" (t "worldgen.prepare");
    m "worldgen.snapshot_s" "s" (t "worldgen.snapshot");
    m "worldgen.snapshot_minor_mw" "Mw" (Tracing.total_mw "worldgen.snapshot");
    m "pipeline.measure_snapshot_s" "s" (t "pipeline.measure_snapshot");
    m "pipeline.measure_minor_mw" "Mw" (Tracing.total_mw "pipeline.measure_snapshot");
    m "dnssim.resolve_ns_per_site" "ns" (per_site "dnssim.resolve");
    m "dnssim.cache_hit_ratio" "ratio" dns_hit_ratio;
    m "netsim.lookup_ns_per_site" "ns" (per_site "netsim.lookup");
    m "tlssim.handshake_ns_per_site" "ns" (per_site "tlssim.handshake");
    m "pipeline.langdetect_ns_per_site" "ns" (per_site "pipeline.langdetect");
    m "core.builder_add_s" "s" builder;
    m "core.scores_s" "s" (t "core.scores");
    m "par.idle_ratio" "ratio" (1.0 -. ratio busy (jobs *. map_fold));
    (* The folding lane's time in the map_fold that is neither its own
       share of the mapping nor the fold: waiting for the other lanes. *)
    m "par.fold_wait_s" "s" (Float.max 0.0 (map_fold -. busy0 -. t "core.builder_add"));
    (* Parallel stages count as their busy time per lane: the share of
       the sweep's wall clock the stage spans explain. *)
    m "sweep.stage_coverage" "ratio"
      (ratio (t "worldgen.prepare" +. (busy /. jobs) +. builder +. t "core.scores") (t "sweep"));
  ]
