(* Reproduction harness: regenerates every table and figure of
   "Formalizing Dependence of Web Infrastructure" (SIGCOMM 2025) from the
   calibrated synthetic world, prints the same rows/series the paper
   reports (with the paper's value alongside where it quotes one), and
   finishes with Bechamel timings — one Test.make per table/figure — and
   the DESIGN.md ablations.

   Environment:
     WEBDEP_BENCH_C     toplist size per country (default 10000)
     WEBDEP_BENCH_SEED  world seed                (default 2024)
     WEBDEP_BENCH_JOBS  worker domains (also --jobs N / -j N on argv;
                        default: the machine's recommended domain count,
                        1 = the exact sequential path)
     WEBDEP_BENCH_SKIP_TIMINGS  set to skip the per-figure Bechamel
                        section (the kernels phase always runs)
     WEBDEP_BENCH_V     set to raise the Logs level to debug
     WEBDEP_BENCH_TRACE set to stream spans to the console
     WEBDEP_BENCH_OUT   output path (default BENCH_obs.json)
     WEBDEP_BENCH_PERFETTO  also export every span as a Chrome trace
                        file loadable in ui.perfetto.dev
     WEBDEP_BENCH_INJECT_SLEEP  "phase:seconds" — artificially slow one
                        phase, to exercise the regression gate end to end
     WEBDEP_BENCH_SCALE_CS  comma-separated toplist sizes for the scale
                        phase (default "300,2000"; the full paper sweep
                        is "300,2000,10000")

   --compare BASELINE.json on argv diffs this run's phases against a
   saved baseline through the noise-aware gate (Webdep_prof.Regress) and
   exits 3 on a regression verdict.

   Every phase (world generation, measurement, each table/figure) runs
   inside a webdep_obs span; the per-phase seconds land in
   BENCH_obs.json alongside the counter/histogram registry, giving
   future PRs a machine-readable perf trajectory to diff against.

   Registry semantics: the "metrics" section of BENCH_obs.json is a
   snapshot taken right after the measurement sweep, so its counters
   describe the pipeline alone.  The registry is then RESET between
   phases ([Registry.reset] zeroes values in place; metric references
   stay valid), so the per-phase counters recorded under
   "phase_counters" reflect exactly what each table/figure consumed —
   under the seed's single accumulating registry a phase's deltas
   included every earlier phase's traffic. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Metrics = Webdep.Metrics
module R = Webdep.Regionalization
module Classify = Webdep.Classify
module Report = Webdep.Report
module Scores = Webdep_reference.Paper_scores
module Anecdotes = Webdep_reference.Anecdotes
module Correlation = Webdep_stats.Correlation
module Region = Webdep_geo.Region
module Country = Webdep_geo.Country

module Epoch = Webdep_epoch
module Span = Webdep_obs.Span
module Obs_metrics = Webdep_obs.Metrics
module Json = Webdep_json

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let c = env_int "WEBDEP_BENCH_C" 10_000
let seed = env_int "WEBDEP_BENCH_SEED" 2024

(* --jobs N / -j N / --jobs=N on argv, or WEBDEP_BENCH_JOBS. *)
let requested_jobs =
  let from_argv =
    let argv = Sys.argv in
    let found = ref None in
    Array.iteri
      (fun i arg ->
        if (arg = "--jobs" || arg = "-j") && i + 1 < Array.length argv then
          found := int_of_string_opt argv.(i + 1)
        else if String.length arg > 7 && String.sub arg 0 7 = "--jobs=" then
          found := int_of_string_opt (String.sub arg 7 (String.length arg - 7)))
      argv;
    !found
  in
  match from_argv with
  | Some _ as j -> j
  | None -> Option.bind (Sys.getenv_opt "WEBDEP_BENCH_JOBS") int_of_string_opt

(* --compare BASELINE.json / --compare=BASELINE.json on argv. *)
let compare_baseline =
  let argv = Sys.argv in
  let found = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--compare" && i + 1 < Array.length argv then found := Some argv.(i + 1)
      else if String.length arg > 10 && String.sub arg 0 10 = "--compare=" then
        found := Some (String.sub arg 10 (String.length arg - 10)))
    argv;
  !found

(* The --compare baseline, read and checked before the first phase: a
   missing, unreadable, unparsable or malformed file gets one line and
   exit 125 instead of a whole pass first. *)
let baseline =
  Option.map
    (fun path ->
      let refuse msg =
        Printf.eprintf "webdep bench: baseline %s unusable: %s\n" path msg;
        exit 125
      in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg -> refuse msg
      | text -> (
          match Webdep_prof.Regress.phases_of_json (Json.parse text) with
          | [] -> refuse "no phases"
          | phases -> phases
          | exception Json.Parse_error msg -> refuse msg
          | exception Webdep_prof.Regress.Bad_phases msg -> refuse msg))
    compare_baseline

(* WEBDEP_BENCH_INJECT_SLEEP="phase:seconds" slows exactly that phase —
   the regression gate's end-to-end smoke test: with a sleep injected the
   --compare verdict must turn red. *)
let injected_sleep =
  match Sys.getenv_opt "WEBDEP_BENCH_INJECT_SLEEP" with
  | None -> None
  | Some spec -> (
      match String.index_opt spec ':' with
      | Some i -> (
          let name = String.sub spec 0 i in
          match
            float_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
          with
          | Some s when s > 0.0 -> Some (name, s)
          | _ -> None)
      | None -> None)

let () =
  match requested_jobs with
  | Some j when j >= 1 -> Webdep_par.set_jobs j
  | Some j ->
      Printf.eprintf "webdep bench: --jobs must be >= 1 (got %d)\n" j;
      exit 124
  | None -> ()

let jobs = Webdep_par.jobs ()

(* A properly-installed reporter so library-level Logs calls are visible
   (the seed's Logs.debug in Measure printed nothing). *)
let () =
  let level =
    if Sys.getenv_opt "WEBDEP_BENCH_V" <> None then Logs.Debug else Logs.Warning
  in
  Webdep_obs.Reporter.setup ~level ();
  let sinks =
    (if Sys.getenv_opt "WEBDEP_BENCH_TRACE" <> None then [ Webdep_obs.Sink.console () ]
     else [])
    @
    match Sys.getenv_opt "WEBDEP_BENCH_PERFETTO" with
    | Some path when path <> "" ->
        at_exit Webdep_obs.Sink.flush;
        [ Webdep_prof.Trace.sink path ]
    | _ -> []
  in
  match sinks with
  | [] -> ()
  | s :: rest -> Webdep_obs.Sink.set (List.fold_left Webdep_obs.Sink.tee s rest)

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "== %s: %s\n" id title;
  Printf.printf "================================================================\n"

let pct x = 100.0 *. x

(* --- the measured world ------------------------------------------------- *)

(* Per-phase wall-clock seconds, recorded bench-locally because the
   registry (where the span histograms live) is reset between phases.
   Minor-heap allocation (Gc.minor_words deltas) rides along: it is the
   stable, scheduler-independent companion to the noisy wall clock, so
   allocation regressions show up in the baseline diff even when timing
   jitter hides them. *)
let recorded_phases : (string * float) list ref = ref []
let record_phase name seconds = recorded_phases := (name, seconds) :: !recorded_phases

let recorded_minor_words : (string * float) list ref = ref []

let record_minor_words name words =
  recorded_minor_words := (name, words) :: !recorded_minor_words

let () =
  Printf.printf "webdep bench: c=%d seed=%d jobs=%d — generating and measuring...\n%!" c seed
    jobs

let world_minor_before = Gc.minor_words ()
let world, world_seconds = Span.timed ~name:"bench.world_create" (fun () -> World.create ~c ~seed ())

let () =
  record_phase "world_create" world_seconds;
  record_minor_words "world_create" (Gc.minor_words () -. world_minor_before)

let measure_minor_before = Gc.minor_words ()
let ds, measure_seconds = Span.timed ~name:"bench.measure_all" (fun () -> Measure.measure_all world)

let () =
  record_phase "measure_all" measure_seconds;
  record_minor_words "measure_all" (Gc.minor_words () -. measure_minor_before)

let () =
  Printf.printf "measured %d (country, site) records in %.1fs\n%!" (D.size ds) measure_seconds;
  Format.printf "%a%!" Webdep.Toolkit.pp (Webdep.Toolkit.summarize ds)

(* The measurement pipeline's registry state, before any per-phase reset
   wipes it: this is what lands under "metrics" in BENCH_obs.json. *)
let measure_metrics = Webdep_obs.Registry.snapshot ()

(* Sequential-vs-parallel probe over a fixed country sample: wall-clock
   for both paths plus a structural-equality check of the datasets.  On
   a single-core host the speedup hovers around 1.0 — the probe is there
   so multi-core CI records honest numbers, and so determinism is
   checked on every bench run regardless. *)
type speedup_probe = {
  probe_countries : int;
  seq_s : float;
  par_s : float;
  speedup : float;
  identical : bool;
}

let speedup =
  if jobs <= 1 then None
  else begin
    let sample = [ "US"; "RU"; "BR"; "DE"; "JP"; "IN"; "FR"; "TH" ] in
    let seq_ds, seq_s =
      Span.timed ~name:"bench.speedup_probe.seq" (fun () ->
          Measure.measure_all ~countries:sample ~jobs:1 world)
    in
    let par_ds, par_s =
      Span.timed ~name:"bench.speedup_probe.par" (fun () ->
          Measure.measure_all ~countries:sample ~jobs world)
    in
    let identical =
      List.for_all (fun cc -> D.country_exn seq_ds cc = D.country_exn par_ds cc) sample
    in
    Printf.printf
      "speedup probe (%d countries): seq %.2fs, par %.2fs (x%.2f with %d domains), \
       datasets identical: %b\n%!"
      (List.length sample) seq_s par_s (seq_s /. par_s) jobs identical;
    if not identical then
      prerr_endline "webdep bench: WARNING: parallel dataset differs from sequential";
    Some
      { probe_countries = List.length sample; seq_s; par_s;
        speedup = seq_s /. par_s; identical }
  end

(* Zero the registry so the first phase's counters start from a clean
   slate (see the header comment on registry semantics). *)
let () = Webdep_obs.Registry.reset ()

let all_ccs = D.countries ds
let layers = Scores.all_layers

let score layer cc = Metrics.centralization ds layer cc
let scores_arr layer ccs = Array.of_list (List.map (score layer) ccs)

let hosting_classification = lazy (Classify.classify ds Hosting)
let dns_classification = lazy (Classify.classify ds Dns)
let ca_classification = lazy (Classify.classify ds Ca)

(* ========================================================================
   Section 3: metric definitions
   ======================================================================== *)

let fig1 () =
  section "Figure 1" "Top-N metric shortcoming (AZ, HK, TH, IR rank curves)";
  Printf.printf "cumulative %% of sites by provider rank (hosting):\n";
  Printf.printf "%-4s %6s %6s %6s %6s %6s %8s %8s\n" "cc" "r=1" "r=2" "r=5" "r=10" "r=100"
    "S" "paper S";
  List.iter
    (fun cc ->
      let cum = Metrics.cumulative_rank_curve ds Hosting cc in
      let at r = if r - 1 < Array.length cum then pct cum.(r - 1) else 100.0 in
      Printf.printf "%-4s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %8.4f %8.4f\n" cc (at 1)
        (at 2) (at 5) (at 10) (at 100) (score Hosting cc) (Scores.score_exn Hosting cc))
    [ "AZ"; "HK"; "TH"; "IR" ];
  Printf.printf
    "paper's point: AZ and HK share a ~59%% top-5 share but AZ's steeper head\n\
     yields a higher S; TH and IR are the extremes.\n";
  Printf.printf "top-5 share: AZ = %.1f%%  HK = %.1f%%\n"
    (pct (Metrics.top_n_share ds Hosting "AZ" 5))
    (pct (Metrics.top_n_share ds Hosting "HK" 5));
  Printf.printf "\ncumulative rank curve, TH (most centralized):\n%s"
    (Webdep.Render.rank_curve (Metrics.cumulative_rank_curve ds Hosting "TH"));
  Printf.printf "cumulative rank curve, IR (least centralized):\n%s"
    (Webdep.Render.rank_curve (Metrics.cumulative_rank_curve ds Hosting "IR"))

let fig2 () =
  section "Figure 2" "Worked EMD example (country A = 0.28, country B = 0.32)";
  let a = [| 5; 3; 2 |] and b = [| 6; 2; 1; 1 |] in
  let show name counts =
    let d = Webdep_emd.Dist.of_counts counts in
    Printf.printf
      "country %s: counts (%s) over C=10 sites -> S closed form = %.4f, via transportation \
       solver = %.4f\n"
      name
      (String.concat "," (List.map string_of_int (Array.to_list counts)))
      (Webdep_emd.Centralization.score d)
      (Webdep_emd.Centralization.via_transport ~fast:false d)
  in
  show "A" a;
  show "B" b;
  Printf.printf "paper: EMD(A) = 0.28 < EMD(B) = 0.32 — B is more centralized.\n"

let fig3 () =
  section "Figure 3" "Example S values for synthetic distributions";
  Printf.printf "%-8s %10s %14s %20s\n" "target" "achieved" "providers" "for 90% of sites";
  List.iter
    (fun target ->
      let n = if target > 0.4 then 50 else if target > 0.1 then 500 else 5000 in
      let n = min n (c / 2) in
      let floor = (1.0 /. float_of_int n) -. (1.0 /. float_of_int c) in
      if target <= floor then
        Printf.printf "%-8.3f (unattainable at c=%d: needs more providers than c/2)\n" target c
      else
      let r = Webdep_worldgen.Calibrate.counts ~c ~n_providers:n ~target () in
      let dist = Webdep_emd.Dist.of_counts r.Webdep_worldgen.Calibrate.counts in
      let cum = ref 0.0 and k = ref 0 and total = Webdep_emd.Dist.total dist in
      Array.iter
        (fun m ->
          if !cum < 0.9 *. total then begin
            cum := !cum +. m;
            incr k
          end)
        (Webdep_emd.Dist.sorted_desc dist);
      Printf.printf "%-8.3f %10.4f %14d %20d\n" target r.Webdep_worldgen.Calibrate.achieved
        (Array.length r.Webdep_worldgen.Calibrate.counts)
        !k)
    [ 0.818; 0.481; 0.25; 0.111; 0.026; 0.005; 0.001 ]

let fig4 () =
  section "Figure 4" "Usage and endemicity (global vs regional provider)";
  Printf.printf "%-18s %9s %10s %8s %8s   top of usage curve (%%)\n" "provider" "usage U"
    "endem. E" "E_R" "peak";
  List.iter
    (fun name ->
      match R.usage_curve ds Hosting ~name with
      | u ->
          Printf.printf "%-18s %9.1f %10.1f %8.3f %7.1f%%  " name u.R.usage u.R.endemicity
            u.R.endemicity_ratio u.R.curve.(0);
          Array.iteri (fun i v -> if i < 8 then Printf.printf "%5.1f" v) u.R.curve;
          print_newline ()
      | exception Not_found -> Printf.printf "%-18s (absent)\n" name)
    [ "Cloudflare"; "Amazon"; "OVH"; "Beget LLC"; "SuperHosting.BG" ];
  Printf.printf
    "paper: the global provider has larger usage; the regional provider a higher\n\
     endemicity ratio (Beget-style curve concentrated on CIS countries).\n"

(* ========================================================================
   Section 5: hosting
   ======================================================================== *)

let show_class_table title (cl : Classify.classification) paper =
  Printf.printf "%s (raw affinity-propagation clusters: %d; paper found %d on hosting)\n"
    title cl.Classify.raw_clusters Anecdotes.hosting_cluster_count;
  Printf.printf "%-10s %9s %10s   example\n" "class" "measured" "paper";
  List.iter
    (fun (k, n) ->
      let paper_n =
        Option.value ~default:0 (List.assoc_opt (Classify.klass_name k) paper)
      in
      let example =
        List.find_map
          (fun ((s : R.usage_stats), k') ->
            if k' = k then Some s.R.entity.D.name else None)
          cl.Classify.providers
      in
      Printf.printf "%-10s %9d %10d   %s\n" (Classify.klass_name k) n paper_n
        (Option.value ~default:"-" example))
    cl.Classify.table

let table1 () =
  section "Table 1" "Classes of hosting providers";
  show_class_table "hosting provider classes" (Lazy.force hosting_classification)
    Anecdotes.hosting_classes;
  Printf.printf
    "note: the global classes match the paper's counts; our synthetic tail mints\n\
     more XS-RP identities than the real world's 11,548 (see DESIGN.md).\n"

let fig5 () =
  section "Figure 5" "Hosting centralization by country";
  let ranked = Report.ranked_scores ds Hosting in
  Printf.printf "most centralized:\n";
  List.iteri
    (fun i r ->
      if i < 10 then
        Printf.printf "  #%-3d %-4s S = %.4f (paper %.4f)\n" r.Report.rank r.Report.country
          r.Report.value
          (Scores.score_exn Hosting r.Report.country))
    ranked;
  Printf.printf "least centralized:\n";
  let n = List.length ranked in
  List.iteri
    (fun i r ->
      if i >= n - 10 then
        Printf.printf "  #%-3d %-4s S = %.4f (paper %.4f)\n" r.Report.rank r.Report.country
          r.Report.value
          (Scores.score_exn Hosting r.Report.country))
    ranked;
  Printf.printf "\nsubregion means (paper: SE Asia most centralized 0.2403, Central Asia least 0.0788):\n";
  List.iter
    (fun (sr, m) -> Printf.printf "  %-22s %.4f\n" (Region.subregion_name sr) m)
    (Report.subregion_means ds Hosting (score Hosting));
  Printf.printf "\nglobal: mean S = %.4f (paper %.4f), var = %.4f (paper %.3f)\n"
    (Report.layer_mean ds Hosting) Anecdotes.hosting_mean_centralization
    (Report.layer_variance ds Hosting) Anecdotes.hosting_centralization_variance;
  Printf.printf "90%% of websites hosted by fewer than %d providers in every country (paper: %d)\n"
    (List.fold_left
       (fun acc cc -> max acc (Metrics.providers_for_share ds Hosting cc 0.9))
       0 all_ccs)
    Anecdotes.providers_for_90pct_max;
  Printf.printf "\nbootstrap 95%% confidence intervals (toplist sampling noise):\n";
  List.iter
    (fun cc ->
      let lo, hi = Metrics.centralization_interval ~iterations:200 ~seed ds Hosting cc in
      Printf.printf "  %-4s S = %.4f  [%.4f, %.4f]\n" cc (score Hosting cc) lo hi)
    [ "TH"; "US"; "IR" ]

let fig6 () =
  section "Figure 6" "Classification of providers (usage x endemicity plane)";
  let cl = Lazy.force hosting_classification in
  Printf.printf "%-10s %9s %12s %12s %10s\n" "class" "providers" "mean U/ctry" "mean peak" "mean E_R";
  List.iter
    (fun k ->
      let members = List.filter (fun (_, k') -> k' = k) cl.Classify.providers in
      if members <> [] then begin
        let n = float_of_int (List.length members) in
        let avg f = List.fold_left (fun acc (s, _) -> acc +. f s) 0.0 members /. n in
        Printf.printf "%-10s %9d %11.2f%% %11.2f%% %10.3f\n" (Classify.klass_name k)
          (List.length members)
          (avg (fun (s : R.usage_stats) -> s.R.usage /. 150.0))
          (avg (fun (s : R.usage_stats) ->
               if Array.length s.R.curve = 0 then 0.0 else s.R.curve.(0)))
          (avg (fun (s : R.usage_stats) -> s.R.endemicity_ratio))
      end)
    Classify.all_klasses

let class_breakdown layer (cl : Classify.classification) countries =
  Printf.printf "%-4s %8s" "cc" "S";
  List.iter (fun k -> Printf.printf " %8s" (Classify.klass_name k)) Classify.all_klasses;
  print_newline ();
  List.iter
    (fun cc ->
      Printf.printf "%-4s %8.4f" cc (score layer cc);
      List.iter
        (fun (_, share) -> Printf.printf " %7.1f%%" (pct share))
        (Classify.class_shares cl ds layer cc);
      print_newline ())
    countries

let spread_sample () =
  (* Every 10th country by hosting rank: a readable slice of the 150. *)
  let ranked = List.map (fun r -> r.Report.country) (Report.ranked_scores ds Hosting) in
  List.filteri (fun i _ -> i mod 10 = 0 || i = List.length ranked - 1) ranked

let fig7 () =
  section "Figure 7" "Breakdown of hosting provider types per country (sorted by S)";
  class_breakdown Hosting (Lazy.force hosting_classification) (spread_sample ());
  let cf_top =
    List.filter
      (fun cc ->
        match D.counts_by_entity ds Hosting cc with
        | (top, _) :: _ -> top.D.name = "Cloudflare"
        | [] -> false)
      all_ccs
  in
  Printf.printf "\nCloudflare is the top provider in %d/150 countries (paper: all but Japan)\n"
    (List.length cf_top)

let continent_matrix title rows =
  Printf.printf "%s\n%-14s" title "";
  List.iter (fun ct -> Printf.printf " %7s" (Region.continent_code ct)) Region.all_continents;
  Printf.printf " %7s\n" "anycast";
  List.iter
    (fun (ct, row, anycast) ->
      Printf.printf "%-14s" (Region.continent_name ct);
      List.iter (fun (_, v) -> Printf.printf " %6.1f%%" (pct v)) row;
      Printf.printf " %6.1f%%\n" (pct anycast))
    rows

(* Continent x continent matrix from a per-site field. *)
let geo_matrix field anycast_field =
  List.map
    (fun ct ->
      let members =
        List.filter
          (fun cc ->
            match Country.of_code cc with
            | Some country -> Country.continent country = ct
            | None -> false)
          all_ccs
      in
      let totals = Hashtbl.create 8 in
      let anycast_total = ref 0.0 in
      List.iter
        (fun cc ->
          let cd = D.country_exn ds cc in
          let n = float_of_int (List.length cd.D.sites) in
          List.iter
            (fun site ->
              if anycast_field site then anycast_total := !anycast_total +. (1.0 /. n)
              else
                match field site with
                | None -> ()
                | Some code -> (
                    match Country.of_code code with
                    | None -> ()
                    | Some country ->
                        let target = Country.continent country in
                        Hashtbl.replace totals target
                          ((1.0 /. n)
                          +. Option.value ~default:0.0 (Hashtbl.find_opt totals target))))
            cd.D.sites)
        members;
      let n = Float.max 1.0 (float_of_int (List.length members)) in
      ( ct,
        List.map
          (fun target ->
            (target, Option.value ~default:0.0 (Hashtbl.find_opt totals target) /. n))
          Region.all_continents,
        !anycast_total /. n ))
    Region.all_continents

let fig8 () =
  section "Figure 8" "Regional dependencies on other continents";
  let hq = List.map (fun (ct, row) -> (ct, row, 0.0)) (R.dependence_matrix ds Hosting) in
  continent_matrix "(a) hosting provider HQ continent:" hq;
  print_newline ();
  continent_matrix "(b) hosting IP geolocation continent (anycast separate):"
    (geo_matrix (fun s -> s.D.hosting_geo) (fun s -> s.D.hosting_anycast));
  print_newline ();
  continent_matrix "(c) DNS nameserver geolocation continent (anycast separate):"
    (geo_matrix (fun s -> s.D.ns_geo) (fun s -> s.D.ns_anycast));
  Printf.printf
    "\npaper: strong reliance on North America everywhere; Europe and Eastern Asia\n\
     mostly self-reliant; anycast far more common for nameservers than hosting.\n"

let fig9 () =
  section "Figure 9" "Centralization across layers and subregions";
  Printf.printf "%-22s" "subregion";
  List.iter (fun l -> Printf.printf " %9s" (Scores.layer_name l)) layers;
  print_newline ();
  List.iter
    (fun sr ->
      let members =
        List.filter (fun cc -> (Country.of_code_exn cc).Country.subregion = sr) all_ccs
      in
      if members <> [] then begin
        Printf.printf "%-22s" (Region.subregion_name sr);
        List.iter
          (fun layer ->
            let mean = Webdep_stats.Descriptive.mean (scores_arr layer members) in
            Printf.printf " %9.4f" mean)
          layers;
        print_newline ()
      end)
    Region.all_subregions;
  Printf.printf "\nhosting-layer spread per subregion (the figure's distributions):\n";
  Printf.printf "%-22s %7s %7s %7s %7s %7s\n" "" "min" "q1" "median" "q3" "max";
  List.iter
    (fun (sr, s) ->
      Printf.printf "%-22s %7.4f %7.4f %7.4f %7.4f %7.4f\n" (Region.subregion_name sr)
        s.Report.min s.Report.q1 s.Report.median s.Report.q3 s.Report.max)
    (Report.subregion_spread ds Hosting (score Hosting))

let fig10 () =
  section "Figure 10" "Insularity across layers and subregions";
  Printf.printf "%-22s" "subregion";
  List.iter (fun l -> Printf.printf " %9s" (Scores.layer_name l)) layers;
  print_newline ();
  List.iter
    (fun sr ->
      let members =
        List.filter (fun cc -> (Country.of_code_exn cc).Country.subregion = sr) all_ccs
      in
      if members <> [] then begin
        Printf.printf "%-22s" (Region.subregion_name sr);
        List.iter
          (fun layer ->
            let mean =
              Webdep_stats.Descriptive.mean
                (Array.of_list (List.map (R.insularity ds layer) members))
            in
            Printf.printf " %8.1f%%" (pct mean))
          layers;
        print_newline ()
      end)
    Region.all_subregions

let fig11 () =
  section "Figure 11" "CDF of insularity across layers";
  Printf.printf "%-8s" "percent";
  List.iter (fun l -> Printf.printf " %9s" (Scores.layer_name l)) layers;
  print_newline ();
  let cdfs = List.map (fun l -> Report.insularity_cdf ds l) layers in
  List.iter
    (fun q ->
      Printf.printf "p%-7d" q;
      List.iter
        (fun cdf ->
          let idx = min (Array.length cdf - 1) (q * Array.length cdf / 100) in
          Printf.printf " %8.1f%%" (pct (fst cdf.(idx))))
        cdfs;
      print_newline ())
    [ 10; 25; 50; 75; 90; 99 ];
  Printf.printf
    "paper: countries are most insular at the TLD layer; hosting and DNS track\n\
     each other; CA insularity is near zero almost everywhere.\n"

let fig12 () =
  section "Figure 12" "Centralization histograms by layer + Global Top marker";
  List.iter
    (fun layer ->
      let h = Report.score_histogram ds layer ~bins:12 () in
      Printf.printf "%-8s |" (Scores.layer_name layer);
      Array.iter (fun k -> Printf.printf " %3d" k) h.Webdep_stats.Histogram.counts;
      Printf.printf "|  global-top marker S = %.4f\n" (Metrics.global_score ds layer))
    layers;
  Printf.printf "(bins of width 0.05 over [0, 0.6])\n";
  Printf.printf "\nhosting layer histogram:\n%s"
    (Webdep.Render.histogram (Report.score_histogram ds Hosting ~bins:12 ()));
  Printf.printf "TLD layer histogram:\n%s"
    (Webdep.Render.histogram (Report.score_histogram ds Tld ~bins:12 ()));
  Printf.printf
    "paper: hosting/DNS similar; CA has tiny variance; TLD shifted right; the\n\
     pooled global-top S is representative for hosting/DNS/CA but not TLD.\n"

let fig13 () =
  section "Figure 13" "CA insularity by country";
  let ranked = Report.ranked_insularity ds Ca in
  List.iteri
    (fun i r ->
      if i < 10 then
        Printf.printf "  #%-3d %-4s %5.1f%%\n" r.Report.rank r.Report.country
          (pct r.Report.value))
    ranked;
  let with_local = List.length (List.filter (fun r -> r.Report.value > 0.0) ranked) in
  Printf.printf "countries using any CA based in their own country: %d (paper: %d)\n" with_local
    Anecdotes.ca_insular_countries

(* ========================================================================
   Section 6/7: DNS and CAs
   ======================================================================== *)

let table2 () =
  section "Table 2" "Classes of DNS infrastructure providers";
  show_class_table "dns provider classes" (Lazy.force dns_classification) Anecdotes.dns_classes

let table3 () =
  section "Table 3" "Classes of certificate authorities";
  let cl = Lazy.force ca_classification in
  show_class_table "certificate authority classes" cl Anecdotes.ca_classes;
  let distinct = List.length cl.Classify.providers in
  Printf.printf "distinct CAs observed: %d (paper: %d)\n" distinct Anecdotes.ca_total;
  let global7 =
    [ "Let's Encrypt"; "DigiCert"; "Sectigo"; "Google Trust Services";
      "Amazon Trust Services"; "GlobalSign"; "GoDaddy" ]
  in
  let shares =
    List.map
      (fun cc ->
        List.fold_left (fun acc n -> acc +. D.entity_share ds Ca cc ~name:n) 0.0 global7)
      all_ccs
  in
  Printf.printf
    "seven large global CAs cover %.1f%%-%.1f%% of websites per country (paper: 80-99.7%%)\n"
    (pct (List.fold_left Float.min 1.0 shares))
    (pct (List.fold_left Float.max 0.0 shares))

let fig14 () =
  section "Figure 14" "DNS provider-type breakdown per country";
  class_breakdown Dns (Lazy.force dns_classification) (spread_sample ())

let fig15 () =
  section "Figure 15" "CA breakdown per country (seven global CAs vs rest)";
  let global7 =
    [ "Let's Encrypt"; "DigiCert"; "Sectigo"; "Google Trust Services";
      "Amazon Trust Services"; "GlobalSign"; "GoDaddy" ]
  in
  Printf.printf "%-4s %8s %8s %9s %8s\n" "cc" "S" "LE" "DigiCert" "top7";
  List.iter
    (fun cc ->
      let share n = D.entity_share ds Ca cc ~name:n in
      let top7 = List.fold_left (fun acc n -> acc +. share n) 0.0 global7 in
      Printf.printf "%-4s %8.4f %7.1f%% %8.1f%% %7.1f%%\n" cc (score Ca cc)
        (pct (share "Let's Encrypt")) (pct (share "DigiCert")) (pct top7))
    [ "SK"; "CZ"; "EE"; "IR"; "RU"; "PL"; "US"; "DE"; "FR"; "IN"; "KR"; "VN"; "JP"; "TW" ]

let fig16 () =
  section "Figure 16" "TLD breakdown per country (.com / local ccTLD / external ccTLDs / global)";
  Printf.printf "%-4s %8s %8s %9s %8s %8s\n" "cc" "S" ".com" "local cc" "ext cc" "global";
  List.iter
    (fun cc ->
      let cd = D.country_exn ds cc in
      let n = float_of_int (List.length cd.D.sites) in
      let com = ref 0.0 and local = ref 0.0 and external_cc = ref 0.0 and global = ref 0.0 in
      let own = Country.ccTLD (Country.of_code_exn cc) in
      List.iter
        (fun s ->
          let tld = s.D.tld.D.name in
          if tld = ".com" then com := !com +. 1.0
          else if tld = own then local := !local +. 1.0
          else if Country.mem s.D.tld.D.country && s.D.tld.D.country <> "US" then
            external_cc := !external_cc +. 1.0
          else global := !global +. 1.0)
        cd.D.sites;
      Printf.printf "%-4s %8.4f %7.1f%% %8.1f%% %7.1f%% %7.1f%%\n" cc (score Tld cc)
        (pct (!com /. n)) (pct (!local /. n)) (pct (!external_cc /. n)) (pct (!global /. n)))
    [ "US"; "PR"; "CZ"; "HU"; "PL"; "TH"; "DE"; "AT"; "KG"; "TM"; "BY"; "RE"; "BF"; "JP" ]

let ranked_layer_figure id layer =
  section id (Printf.sprintf "%s centralization, sorted (named ranks)" (Scores.layer_name layer));
  let ranked = Report.ranked_scores ds layer in
  let n = List.length ranked in
  List.iteri
    (fun i r ->
      if i < 5 || i >= n - 5 then
        Printf.printf "  #%-3d %-4s S = %.4f (paper %.4f, paper rank %d)\n" r.Report.rank
          r.Report.country r.Report.value
          (Scores.score_exn layer r.Report.country)
          (Option.get (Scores.rank layer r.Report.country)))
    ranked;
  let measured = scores_arr layer all_ccs in
  let paper = Scores.scores_in_country_order layer all_ccs in
  let rho = (Correlation.pearson measured paper).Correlation.rho in
  Printf.printf "paper-vs-measured over all 150 countries: rho = %.4f\n" rho

let fig17 () = ranked_layer_figure "Figure 17" Dns
let fig18 () = ranked_layer_figure "Figure 18" Ca
let fig19 () = ranked_layer_figure "Figure 19" Tld

let insularity_figure id layer note =
  section id (Printf.sprintf "%s insularity, sorted" (Scores.layer_name layer));
  let ranked = Report.ranked_insularity ds layer in
  let n = List.length ranked in
  List.iteri
    (fun i r ->
      if i < 6 || i >= n - 3 then
        Printf.printf "  #%-3d %-4s %5.1f%%\n" r.Report.rank r.Report.country (pct r.Report.value))
    ranked;
  print_endline note

let fig20 () =
  insularity_figure "Figure 20" Hosting
    "paper: US most insular (92.1%), then IR (64.8%), CZ (54.5%), RU (51.1%)."

let fig21 () =
  insularity_figure "Figure 21" Dns "paper: DNS tracks hosting: US, CZ, IR, RU lead."

let fig22 () =
  insularity_figure "Figure 22" Tld
    "paper: US (via .com), CZ, HU, PL lead; French territories at the bottom."

let table_appendix id layer =
  section id
    (Printf.sprintf "Country x %s centralization scores (all 150 rows)"
       (String.uppercase_ascii (Scores.layer_name layer)));
  Printf.printf "%-5s %-4s %10s %10s %8s\n" "rank" "cc" "measured" "paper" "diff";
  let ranked = Report.ranked_scores ds layer in
  List.iter
    (fun r ->
      let paper = Scores.score_exn layer r.Report.country in
      Printf.printf "%-5d %-4s %10.4f %10.4f %+8.4f\n" r.Report.rank r.Report.country
        r.Report.value paper (r.Report.value -. paper))
    ranked;
  let measured = scores_arr layer all_ccs in
  let paper = Scores.scores_in_country_order layer all_ccs in
  let rho = (Correlation.pearson measured paper).Correlation.rho in
  let max_diff =
    List.fold_left
      (fun acc cc -> Float.max acc (Float.abs (score layer cc -. Scores.score_exn layer cc)))
      0.0 all_ccs
  in
  Printf.printf
    "summary: rho = %.4f, max |diff| = %.4f, mean measured = %.4f, mean paper = %.4f\n" rho
    max_diff (Report.layer_mean ds layer) (Scores.mean layer)

let table5 () = table_appendix "Table 5" Hosting
let table6 () = table_appendix "Table 6" Dns
let table7 () = table_appendix "Table 7" Ca
let table8 () = table_appendix "Table 8" Tld

(* ========================================================================
   Experiments from the text
   ======================================================================== *)

let vantage () =
  section "Sec 3.4" "Vantage-point validation (RIPE-style probes)";
  let home = List.map (fun cc -> (cc, score Hosting cc)) all_ccs in
  let probes = Measure.measure_with_probes ~per_country_probes:5 ~seed world all_ccs in
  let v = Webdep.Validate.correlate ~home ~probes in
  Printf.printf "rho(home vantage, in-country probes) = %.4f (paper: %.2f), p = %.2g\n"
    v.Webdep.Validate.rho.Correlation.rho Anecdotes.rho_vantage_points
    v.Webdep.Validate.rho.Correlation.p_value;
  Printf.printf "max per-country gap = %.4f over %d countries\n" v.Webdep.Validate.max_gap
    (List.length v.Webdep.Validate.pairs)

(* The bench world at May 2025, measured once: [longitudinal] compares
   against it, and the serve and epoch fixture reuses it. *)
let ds_2025 = lazy (Measure.measure_all ~epoch:World.May_2025 world)

let longitudinal () =
  section "Sec 5.4" "Longitudinal change, May 2023 -> May 2025";
  let ds25, seconds =
    Span.timed ~name:"bench.measure_all_2025" (fun () -> Lazy.force ds_2025)
  in
  Printf.printf "(2025 world measured in %.1fs)\n" seconds;
  let cmp =
    Webdep.Longitudinal.compare ~focus:"Cloudflare" ~old_ds:ds ~new_ds:ds25 Hosting
  in
  Printf.printf "rho(S 2023, S 2025) = %.4f (paper: %.2f)\n"
    cmp.Webdep.Longitudinal.rho.Correlation.rho Anecdotes.rho_longitudinal;
  let ru = List.find (fun d -> d.Webdep.Longitudinal.country = "RU") cmp.Webdep.Longitudinal.deltas in
  Printf.printf "mean toplist Jaccard = %.3f (paper: ~%.2f); Russia = %.3f (paper: ~%.1f)\n"
    cmp.Webdep.Longitudinal.mean_jaccard Anecdotes.longitudinal_jaccard_mean
    ru.Webdep.Longitudinal.jaccard Anecdotes.longitudinal_jaccard_ru;
  (match cmp.Webdep.Longitudinal.focus_mean_delta with
  | Some d ->
      Printf.printf "mean Cloudflare change = %+.1f pts (paper: +%.1f)\n" (pct d)
        (pct Anecdotes.cloudflare_mean_increase)
  | None -> ());
  let br = List.find (fun d -> d.Webdep.Longitudinal.country = "BR") cmp.Webdep.Longitudinal.deltas in
  let paper_br = Anecdotes.brazil_old_new and paper_ru = Anecdotes.russia_old_new in
  Printf.printf "Brazil: %.4f -> %.4f (paper: %.4f -> %.4f) — largest increase\n"
    br.Webdep.Longitudinal.old_score br.Webdep.Longitudinal.new_score (fst paper_br)
    (snd paper_br);
  Printf.printf "Russia: %.4f -> %.4f (paper: %.4f -> %.4f) — largest decrease\n"
    ru.Webdep.Longitudinal.old_score ru.Webdep.Longitudinal.new_score (fst paper_ru)
    (snd paper_ru);
  let inc = Webdep.Longitudinal.largest_increase cmp in
  Printf.printf "largest measured increase: %s (%+.4f)\n" inc.Webdep.Longitudinal.country
    inc.Webdep.Longitudinal.delta

let correlations () =
  section "Sec 5.2/5.3" "Class-share and insularity correlations with S (hosting)";
  let cl = Lazy.force hosting_classification in
  let s = scores_arr Hosting all_ccs in
  let class_share k =
    Array.of_list (List.map (fun cc -> Classify.share_of_class cl ds Hosting cc k) all_ccs)
  in
  let perm_rng = Webdep_stats.Rng.create (seed + 7) in
  let report name arr paper =
    let r = Correlation.pearson arr s in
    let perm = Correlation.permutation_p ~iterations:500 perm_rng arr s in
    Printf.printf "%-38s rho = %+.3f (paper: %+.2f), p = %.2g (perm p = %.2g) [%s]\n" name
      r.Correlation.rho paper r.Correlation.p_value perm
      (Correlation.strength_to_string (Correlation.strength r.Correlation.rho))
  in
  report "XL-GP share vs centralization" (class_share Classify.XL_GP)
    Anecdotes.rho_xlgp_centralization;
  report "L-GP share vs centralization" (class_share Classify.L_GP)
    Anecdotes.rho_lgp_centralization;
  report "L-RP share vs centralization" (class_share Classify.L_RP)
    Anecdotes.rho_lrp_centralization;
  let ins = Array.of_list (List.map (R.insularity ds Hosting) all_ccs) in
  report "hosting insularity vs centralization" ins Anecdotes.rho_insularity_centralization;
  let tld_ins = Array.of_list (List.map (R.insularity ds Tld) all_ccs) in
  let r = Correlation.pearson ins tld_ins in
  Printf.printf "%-38s rho = %+.3f (paper: %+.2f), p = %.2g [%s]\n"
    "hosting vs TLD insularity" r.Correlation.rho Anecdotes.rho_hosting_tld_insularity
    r.Correlation.p_value
    (Correlation.strength_to_string (Correlation.strength r.Correlation.rho));
  (* Rank-based agreement: Spearman should tell the same story. *)
  let xl = class_share Classify.XL_GP in
  let rp = Correlation.pearson xl s and rs = Correlation.spearman xl s in
  let lo, hi = Correlation.fisher_interval rp in
  Printf.printf
    "\nXL-GP vs S — pearson %.3f (95%% CI [%.3f, %.3f]), spearman %.3f: rank-based\n\
     and linear agreement coincide.\n"
    rp.Correlation.rho lo hi rs.Correlation.rho;
  Printf.printf "\nregional case studies (share of hosting on partner-country providers):\n";
  List.iter
    (fun (cc, partner, paper_share) ->
      let dep =
        Option.value ~default:0.0
          (List.assoc_opt partner (R.foreign_dependence ds Hosting cc))
      in
      Printf.printf "  %s -> %s: %5.1f%% (paper: %5.1f%%)\n" cc partner (pct dep)
        (pct paper_share))
    Anecdotes.cross_country_hosting

let language_case_study () =
  section "Sec 5.3.3 (lang)" "Language and cross-border hosting: Afghanistan and Iran";
  let fa_share = Webdep.Language_analysis.share_of_language ds "AF" "fa" in
  let fa_in_ir = Webdep.Language_analysis.hosted_in ds "AF" ~language:"fa" ~home:"IR" in
  Printf.printf "Persian share of Afghan top sites: %.1f%% (paper: 31.4%%)\n" (pct fa_share);
  Printf.printf "of those, hosted in Iran:          %.1f%% (paper: 60.8%%)\n" (pct fa_in_ir);
  Printf.printf "Afghan language breakdown: %s\n"
    (String.concat ", "
       (List.filteri (fun i _ -> i < 4)
          (List.map
             (fun (lang, s) -> Printf.sprintf "%s %.1f%%" lang (pct s))
             (Webdep.Language_analysis.language_breakdown ds "AF"))));
  Printf.printf "Persian sites by provider home: %s\n"
    (String.concat ", "
       (List.filteri (fun i _ -> i < 4)
          (List.map
             (fun (home, s) -> Printf.sprintf "%s %.1f%%" home (pct s))
             (Webdep.Language_analysis.language_home_crosstab ds "AF" ~language:"fa"))))

let redundancy_study () =
  section "Sec 3.2 (ext)" "Provider redundancy: sites that require a single provider";
  Printf.printf "%-4s %14s %14s %12s\n" "cc" "single-homed" "top critical" "SPOF score";
  List.iter
    (fun cc ->
      let input =
        Measure.discover_redundancy ~vantages:[ "US"; cc; "DE"; "JP"; "BR" ] world cc
      in
      let r = Webdep.Redundancy.analyze input in
      let top =
        match r.Webdep.Redundancy.critical_counts with
        | (name, k) :: _ -> Printf.sprintf "%s (%d)" name k
        | [] -> "-"
      in
      Printf.printf "%-4s %13.1f%% %14s %12.4f\n" cc
        (pct (Webdep.Redundancy.single_homed_fraction r))
        top r.Webdep.Redundancy.spof_score)
    [ "TH"; "US"; "IR"; "DE" ];
  Printf.printf
    "multi-CDN sites (%.0f%% of the world) surface a secondary provider from some\n\
     vantages and stop counting as single points of failure.\n"
    (pct World.multi_cdn_fraction)

let external_tlds () =
  section "App. B (ext)" "External ccTLD dependence";
  Printf.printf "countries where an external ccTLD outranks the local one:\n";
  let over =
    List.filter_map
      (fun cc ->
        Option.map (fun tld -> (cc, tld)) (Webdep.Tld_analysis.uses_external_over_local ds cc))
      all_ccs
  in
  List.iter (fun (cc, tld) -> Printf.printf "  %-4s -> %s\n" cc tld) over;
  Printf.printf "(paper: .fr outranks the local ccTLD in 14 countries)\n\n";
  Printf.printf "%-4s  top external ccTLDs\n" "cc";
  List.iter
    (fun cc ->
      let ext = Webdep.Tld_analysis.external_cctlds ds cc in
      Printf.printf "%-4s  %s\n" cc
        (String.concat ", "
           (List.filteri (fun i _ -> i < 3)
              (List.map (fun (tld, s) -> Printf.sprintf "%s %.1f%%" tld (pct s)) ext))))
    [ "KG"; "TM"; "BY"; "AT"; "CH"; "BF"; "RE"; "SK" ]

let baselines () =
  section "Baselines" "S vs the measures prior work used (top-N, HHI, Gini)";
  let module B = Webdep_emd.Baselines in
  Printf.printf "%-4s %8s %8s %8s %8s %10s\n" "cc" "S" "top-5" "gini" "evenness" "eff. prov";
  List.iter
    (fun cc ->
      let d = D.distribution ds Hosting cc in
      Printf.printf "%-4s %8.4f %7.1f%% %8.3f %8.3f %10.1f\n" cc (score Hosting cc)
        (pct (B.top_n d 5)) (B.gini d) (B.shannon_evenness d) (B.effective_providers d))
    [ "TH"; "AZ"; "HK"; "US"; "CZ"; "IR" ];
  let labelled = List.map (fun cc -> (cc, D.distribution ds Hosting cc)) all_ccs in
  let dis = B.compare_with_top_n labelled in
  Printf.printf
    "\nover all %d country pairs: top-5 ties %d pairs that S separates, and\n\
     orders %d pairs opposite to S — the Figure 1 shortcoming at scale.\n"
    dis.B.pairs_compared dis.B.topn_ties_s_separates dis.B.rank_inversions

let weighted_and_pairwise () =
  section "Sec 3.2 (ext)" "Customizable EMD: traffic weighting and pairwise comparison";
  (* Traffic weighting: give sites Zipf traffic weights, heaviest traffic
     on the sites of the biggest providers (popular sites sit on the big
     CDNs), and compare against the unweighted score. *)
  let cc = "TH" in
  let groups = D.counts_by_entity ds Hosting cc in
  let total_sites = List.fold_left (fun acc (_, k) -> acc + k) 0 groups in
  let zipf = Webdep_stats.Sample.zipf_weights ~s:1.0 total_sites in
  let _, weighted_groups =
    List.fold_left
      (fun (offset, acc) (_, k) ->
        let k = min k (total_sites - offset) in
        (offset + k, Array.sub zipf offset k :: acc))
      (0, []) groups
  in
  let unweighted = score Hosting cc in
  let weighted = Webdep_emd.Extensions.weighted_score weighted_groups in
  Printf.printf "%s hosting: unweighted S = %.4f, traffic-weighted S_w = %.4f\n" cc unweighted
    weighted;
  Printf.printf
    "(weighting by Zipf traffic increases concentration: popular sites sit on the\n\
     biggest providers)\n\n";
  (* Pairwise: which countries have the most similar hosting shapes?
     Exact pairwise EMD runs on the top-40 buckets (the solver is
     polynomial); the closed-form L1 companion uses the full vectors. *)
  let truncate d =
    let top = Array.sub (Webdep_emd.Dist.sorted_desc d) 0 (min 40 (Webdep_emd.Dist.size d)) in
    Webdep_emd.Dist.of_masses top
  in
  let pairs = [ ("AZ", "HK"); ("TH", "ID"); ("TH", "IR"); ("CZ", "RU"); ("US", "GB") ] in
  Printf.printf "%-10s %16s %14s\n" "pair" "EMD(top-40)" "sorted-L1/2";
  List.iter
    (fun (a, b) ->
      let da = D.distribution ds Hosting a and db = D.distribution ds Hosting b in
      Printf.printf "%-4s/%-5s %16.4f %14.4f\n" a b
        (Webdep_emd.Extensions.pairwise (truncate da) (truncate db))
        (Webdep_emd.Extensions.sorted_share_l1 da db))
    pairs

(* ========================================================================
   Ablations (DESIGN.md)
   ======================================================================== *)

let shape_similarity () =
  section "Maps (ext)" "Distribution-shape similarity and subregional coherence";
  let coherence = Webdep.Similarity_analysis.subregional_coherence ds Hosting in
  Printf.printf
    "mean shape distance within subregions = %.4f, across = %.4f (ratio %.2f)\n\
     — countries resemble their subregion, the pattern behind the Figure 5 map.\n\n"
    coherence.Webdep.Similarity_analysis.within coherence.Webdep.Similarity_analysis.across
    coherence.Webdep.Similarity_analysis.ratio;
  List.iter
    (fun cc ->
      Printf.printf "%-4s nearest shapes: %s\n" cc
        (String.concat ", "
           (List.map
              (fun (other, d) -> Printf.sprintf "%s (%.3f)" other d)
              (Webdep.Similarity_analysis.nearest_neighbours ds Hosting ~k:4 cc))))
    [ "TH"; "IR"; "CZ"; "US" ]

let state_ca () =
  section "Sec 7.2 (ext)" "The browser-rejected state CA";
  let snap = World.snapshot world "RU" in
  let measured = Measure.measure_snapshot world snap in
  let assigned_state, labelled_state =
    List.fold_left
      (fun (a, l) s ->
        match Hashtbl.find_opt snap.Webdep_worldgen.World.assigned s.D.domain with
        | Some (_, _, ca)
          when ca.Webdep_worldgen.Provider.name = "Russian Trusted Root CA" ->
            ((a + 1), if s.D.ca <> None then l + 1 else l)
        | _ -> (a, l))
      (0, 0) measured.D.sites
  in
  Printf.printf
    "Russian sites serving certificates from the state root CA: %d (%.1f%%); the\n\
     pipeline labels %d of them — CCADB has no entry for a CA outside the browser\n\
     root programs, exactly the paper's account of the 2022 state CA.\n"
    assigned_state
    (pct (float_of_int assigned_state /. float_of_int (List.length measured.D.sites)))
    labelled_state

let crux_coverage () =
  section "Sec 3.4 (CrUX)" "Country coverage: the 10K-website eligibility cut";
  let rng = Webdep_stats.Rng.create seed in
  let es = Webdep_crux.Coverage.simulate rng () in
  Printf.printf
    "simulated CrUX country lists: %d of %d countries have >= %d websites (%.1f%%);\n\
     the paper keeps 150 of 237 (63.3%%).\n"
    (Webdep_crux.Coverage.eligible_count es)
    (List.length es) Webdep_crux.Coverage.threshold
    (pct (Webdep_crux.Coverage.eligible_fraction es));
  let lengths =
    Array.of_list (List.map (fun e -> float_of_int e.Webdep_crux.Coverage.list_length) es)
  in
  Printf.printf "list-length quartiles: p25 = %.0f, median = %.0f, p75 = %.0f\n"
    (Webdep_stats.Descriptive.percentile lengths 25.0)
    (Webdep_stats.Descriptive.median lengths)
    (Webdep_stats.Descriptive.percentile lengths 75.0)

let substrate_validation () =
  section "Substrates" "Pipeline substrate self-checks (ZDNS / RouteViews parity)";
  (* Iterative DNS over the delegation hierarchy vs the flat resolver. *)
  let stats = Measure.iterative_resolution_stats world "FR" in
  Printf.printf
    "iterative DNS (root -> TLD -> authoritative) over France's %d domains:\n\
    \  agreement with flat resolution = %.1f%%, %.2f queries/domain, %d failures\n"
    stats.Measure.domains (pct stats.Measure.agreement) stats.Measure.mean_queries
    stats.Measure.failures;
  (* RouteViews-style origin derivation vs the direct pfx2as table. *)
  let internet = World.internet world in
  let bgp = Webdep_netsim.Internet.bgp internet in
  let derived = Webdep_netsim.Bgp.derive_pfx2as bgp in
  let sampled = ref 0 and agree = ref 0 in
  Webdep_netsim.Prefix_table.fold
    (fun prefix _asn () ->
      if !sampled < 2000 then begin
        incr sampled;
        let a = Webdep_netsim.Ipv4.nth_addr prefix 1 in
        (* The derivation must agree with the Internet's own direct
           pfx2as table. *)
        if Webdep_netsim.Prefix_table.lookup derived a
           = Webdep_netsim.Internet.origin_as internet a
        then incr agree
      end)
    derived ();
  Printf.printf
    "BGP: %d announcements over %d prefixes; derived pfx2as self-consistent on %d/%d \
     samples; MOAS conflicts: %d\n"
    (Webdep_netsim.Bgp.announcement_count bgp)
    (Webdep_netsim.Bgp.prefix_count bgp)
    !agree !sampled
    (List.length (Webdep_netsim.Bgp.moas bgp))

let ablation_fdiv () =
  section "Ablation A" "f-divergences vs EMD on disjoint supports (Sec 3.1)";
  let module Div = Webdep_emd.Divergence in
  let obs1 = [| 0.9; 0.1 |] and obs2 = [| 0.6; 0.4 |] in
  let reference = Array.append [| 0.0; 0.0 |] (Array.make 8 0.125) in
  let pad v = fst (Div.align v reference) in
  Printf.printf "%-22s %12s %12s\n" "metric" "skewed(9:1)" "flat(6:4)";
  Printf.printf "%-22s %12.4f %12.4f   <- saturated, cannot rank\n" "Hellinger"
    (Div.hellinger (pad obs1) reference)
    (Div.hellinger (pad obs2) reference);
  Printf.printf "%-22s %12.4f %12.4f   <- saturated\n" "total variation"
    (Div.total_variation (pad obs1) reference)
    (Div.total_variation (pad obs2) reference);
  Printf.printf "%-22s %12.4f %12.4f   <- saturated at ln 2\n" "Jensen-Shannon"
    (Div.jensen_shannon (pad obs1) reference)
    (Div.jensen_shannon (pad obs2) reference);
  Printf.printf "%-22s %12s %12s   <- infinite on disjoint support\n" "KL" "inf" "inf";
  Printf.printf "%-22s %12.4f %12.4f   <- EMD-based S ranks them\n" "centralization S"
    (Webdep_emd.Centralization.score_of_counts [| 9; 1 |])
    (Webdep_emd.Centralization.score_of_counts [| 6; 4 |])

let ablation_c_sensitivity () =
  section "Ablation E" "Toplist-size sensitivity: S under different C (req. 3, Sec 3.2)";
  Printf.printf "%-4s" "cc";
  List.iter (fun c' -> Printf.printf " %10s" (Printf.sprintf "C=%d" c')) [ 1000; 2500; 5000; 10000 ];
  Printf.printf " %10s\n" "paper";
  List.iter
    (fun cc ->
      Printf.printf "%-4s" cc;
      List.iter
        (fun c' ->
          let m = Webdep_worldgen.Mix.build ~c:c' Hosting cc in
          Printf.printf " %10.4f" m.Webdep_worldgen.Mix.achieved_score)
        [ 1000; 2500; 5000; 10000 ];
      Printf.printf " %10.4f\n" (Scores.score_exn Hosting cc))
    [ "TH"; "US"; "CZ"; "IR" ];
  Printf.printf
    "the score is stable in C once C dominates the provider count — the paper's\n\
     requirement that comparisons hold C constant is conservative but cheap.\n"

let ablation_emd () =
  section "Ablation B" "Closed-form S vs general transportation solver (App. A)";
  let rng = Webdep_stats.Rng.create 99 in
  let max_gap = ref 0.0 in
  let trials = 50 in
  for _ = 1 to trials do
    let n = 2 + Webdep_stats.Rng.int rng 6 in
    let counts = Array.init n (fun _ -> 1 + Webdep_stats.Rng.int rng 8) in
    let d = Webdep_emd.Dist.of_counts counts in
    let gap =
      Float.abs
        (Webdep_emd.Centralization.score d
        -. Webdep_emd.Centralization.via_transport ~fast:false d)
    in
    max_gap := Float.max !max_gap gap
  done;
  Printf.printf "%d random instances: max |closed form - solver| = %.2e\n" trials !max_gap;
  let counts = [| 20; 10; 5; 3; 2 |] in
  let d = Webdep_emd.Dist.of_counts counts in
  let time f =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.2 do
      ignore (f ());
      incr iters
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int !iters
  in
  let closed = time (fun () -> Webdep_emd.Centralization.score d) in
  let solver = time (fun () -> Webdep_emd.Centralization.via_transport ~fast:false d) in
  Printf.printf "closed form: %.2e s/call, solver (C=40): %.2e s/call (x%.0f slower)\n" closed
    solver (solver /. closed)

let ablation_endemicity () =
  section "Ablation C" "Endemicity ratio vs raw endemicity (size confound, Sec 3.3)";
  let usage = R.all_usage ds Hosting in
  let big = List.filteri (fun i _ -> i < 200) usage in
  let arr f = Array.of_list (List.map f big) in
  let u = arr (fun (s : R.usage_stats) -> s.R.usage) in
  let e_raw = arr (fun (s : R.usage_stats) -> s.R.endemicity) in
  let e_ratio = arr (fun (s : R.usage_stats) -> s.R.endemicity_ratio) in
  let r_raw = (Correlation.pearson u e_raw).Correlation.rho in
  let r_ratio = (Correlation.pearson u e_ratio).Correlation.rho in
  Printf.printf "corr(usage, raw endemicity)   = %+.3f   <- raw E confounded with size\n" r_raw;
  Printf.printf "corr(usage, endemicity ratio) = %+.3f   <- E_R removes the size effect\n"
    r_ratio

let ablation_clustering () =
  section "Ablation D" "Affinity propagation vs k-means for provider classes";
  let usage = R.all_usage ds Hosting in
  let head = Array.of_list (List.filteri (fun i _ -> i < 300) usage) in
  let points =
    Webdep_stats.Scaling.min_max_columns
      (Array.map (fun (s : R.usage_stats) -> [| log1p s.R.usage; s.R.endemicity_ratio |]) head)
  in
  let ap = Webdep_cluster.Affinity.cluster_points points in
  let ap_sil = Webdep_cluster.Silhouette.score points ap.Webdep_cluster.Affinity.assignment in
  let k = List.length ap.Webdep_cluster.Affinity.exemplars in
  let km = Webdep_cluster.Kmeans.run (Webdep_stats.Rng.create 42) ~k points in
  let km_sil = Webdep_cluster.Silhouette.score points km.Webdep_cluster.Kmeans.assignment in
  Printf.printf "affinity propagation: %d clusters, silhouette = %.3f (converged: %b)\n" k ap_sil
    ap.Webdep_cluster.Affinity.converged;
  Printf.printf "k-means (same k):     %d clusters, silhouette = %.3f\n" k km_sil

(* ========================================================================
   Bechamel timings: one Test.make per table/figure
   ======================================================================== *)

(* Run each Bechamel test as its own Benchmark.all on a pool lane and
   OLS-fit ns/run; the per-test raw tables merge into one (their keys
   are disjoint: "webdep/<test name>").  At --jobs 1 this is the exact
   sequential run; prefer that for clean absolute numbers, since
   concurrent lanes share cores and inflate per-run times.  Shared by
   the per-figure timings section and the always-on kernels phase. *)
let bechamel_rows ?jobs tests =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:60 ~quota:(Time.second 0.15) ~kde:None () in
  let raws =
    Webdep_par.map ?jobs
      (fun test ->
        Benchmark.all cfg Instance.[ monotonic_clock ]
          (Test.make_grouped ~name:"webdep" [ test ]))
      tests
  in
  let raw = Hashtbl.create 64 in
  List.iter (fun tbl -> Hashtbl.iter (Hashtbl.add raw) tbl) raws;
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name est acc ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> (name, ns) :: acc
      | _ -> (name, nan) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Printf.sprintf "%8.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

let timings () =
  let open Bechamel in
  section "Timings" "Bechamel (one Test.make per table/figure)";
  let cl = Lazy.force hosting_classification in
  let small_counts = [| 20; 10; 5; 3; 2 |] in
  let small_dist = Webdep_emd.Dist.of_counts small_counts in
  let hosting_dist = D.distribution ds Hosting "TH" in
  let usage_head =
    Array.of_list (List.filteri (fun i _ -> i < 120) (R.all_usage ds Hosting))
  in
  let cluster_points =
    Webdep_stats.Scaling.min_max_columns
      (Array.map
         (fun (s : R.usage_stats) -> [| log1p s.R.usage; s.R.endemicity_ratio |])
         usage_head)
  in
  let home_scores = List.map (fun cc -> (cc, score Hosting cc)) all_ccs in
  let domains_a = List.init 2000 (fun i -> Printf.sprintf "a%05d.example" i) in
  let domains_b =
    List.init 2000 (fun i ->
        Printf.sprintf "%s%05d.example" (if i mod 2 = 0 then "a" else "b") i)
  in
  let stage = Staged.stage in
  let tests =
    [
      Test.make ~name:"fig1_rank_curves" (stage (fun () -> Metrics.rank_curve ds Hosting "AZ"));
      Test.make ~name:"fig2_emd_transport"
        (stage (fun () -> Webdep_emd.Centralization.via_transport ~fast:false small_dist));
      Test.make ~name:"fig3_calibration"
        (stage (fun () ->
             Webdep_worldgen.Calibrate.counts ~c:2000 ~n_providers:200 ~target:0.111 ()));
      Test.make ~name:"fig4_usage_curve"
        (stage (fun () -> R.usage_curve ds Hosting ~name:"Cloudflare"));
      Test.make ~name:"table1_classify"
        (stage (fun () -> Classify.classify ~cluster_cap:60 ds Hosting));
      Test.make ~name:"fig5_all_scores" (stage (fun () -> Metrics.all_scores ds Hosting));
      Test.make ~name:"fig6_affinity_propagation"
        (stage (fun () -> Webdep_cluster.Affinity.cluster_points ~max_iter:60 cluster_points));
      Test.make ~name:"fig7_class_shares"
        (stage (fun () -> Classify.class_shares cl ds Hosting "TH"));
      Test.make ~name:"fig8_dependence_matrix" (stage (fun () -> R.dependence_matrix ds Hosting));
      Test.make ~name:"fig9_subregion_means"
        (stage (fun () -> Report.subregion_means ds Hosting (score Hosting)));
      Test.make ~name:"fig10_insularity_means"
        (stage (fun () -> Report.subregion_means ds Hosting (R.insularity ds Hosting)));
      Test.make ~name:"fig11_insularity_cdf" (stage (fun () -> Report.insularity_cdf ds Hosting));
      Test.make ~name:"fig12_histogram" (stage (fun () -> Report.score_histogram ds Hosting ()));
      Test.make ~name:"fig13_ca_insularity" (stage (fun () -> R.all_insularity ds Ca));
      Test.make ~name:"table2_dns_usage_stats" (stage (fun () -> R.all_usage ds Dns));
      Test.make ~name:"table3_ca_usage_stats" (stage (fun () -> R.all_usage ds Ca));
      Test.make ~name:"fig14_dns_scores" (stage (fun () -> Metrics.all_scores ds Dns));
      Test.make ~name:"fig15_ca_scores" (stage (fun () -> Metrics.all_scores ds Ca));
      Test.make ~name:"fig16_tld_scores" (stage (fun () -> Metrics.all_scores ds Tld));
      Test.make ~name:"fig17_dns_ranked" (stage (fun () -> Report.ranked_scores ds Dns));
      Test.make ~name:"fig18_ca_ranked" (stage (fun () -> Report.ranked_scores ds Ca));
      Test.make ~name:"fig19_tld_ranked" (stage (fun () -> Report.ranked_scores ds Tld));
      Test.make ~name:"fig20_hosting_insularity"
        (stage (fun () -> R.all_insularity ds Hosting));
      Test.make ~name:"fig21_dns_insularity" (stage (fun () -> R.all_insularity ds Dns));
      Test.make ~name:"fig22_tld_insularity" (stage (fun () -> R.all_insularity ds Tld));
      Test.make ~name:"table5_hosting_score"
        (stage (fun () -> Webdep_emd.Centralization.score hosting_dist));
      Test.make ~name:"table6_dns_distribution" (stage (fun () -> D.distribution ds Dns "TH"));
      Test.make ~name:"table7_ca_distribution" (stage (fun () -> D.distribution ds Ca "TH"));
      Test.make ~name:"table8_tld_distribution" (stage (fun () -> D.distribution ds Tld "TH"));
      Test.make ~name:"vantage_correlate"
        (stage (fun () -> Webdep.Validate.correlate ~home:home_scores ~probes:home_scores));
      Test.make ~name:"longitudinal_jaccard"
        (stage (fun () -> Webdep_stats.Similarity.jaccard_strings domains_a domains_b));
      Test.make ~name:"ablation_closed_form"
        (stage (fun () -> Webdep_emd.Centralization.score small_dist));
      Test.make ~name:"ablation_transport"
        (stage (fun () -> Webdep_emd.Centralization.via_transport ~fast:false small_dist));
      Test.make ~name:"ext_language_crosstab"
        (stage (fun () -> Webdep.Language_analysis.language_breakdown ds "AF"));
      Test.make ~name:"ext_baselines_gini"
        (stage (fun () -> Webdep_emd.Baselines.gini hosting_dist));
      Test.make ~name:"ext_weighted_score"
        (stage (fun () ->
             Webdep_emd.Extensions.weighted_score [ [| 3.0; 2.0 |]; [| 1.0 |] ]));
      Test.make ~name:"ext_export_scores_csv"
        (stage (fun () -> Webdep.Export.scores_csv ds Hosting));
      Test.make ~name:"ext_tld_breakdown"
        (stage (fun () -> Webdep.Tld_analysis.breakdown ds "AT"));
    ]
  in
  let rows = bechamel_rows ~jobs:1 tests in
  Printf.printf "%-48s %16s\n" "benchmark" "time per run";
  List.iter (fun (name, ns) -> Printf.printf "%-48s %16s\n" name (pretty_ns ns)) rows

(* ========================================================================
   Hot-path kernels (always run): old-vs-new transport solver and the
   span probe.  WEBDEP_BENCH_SKIP_TIMINGS only skips
   the per-figure Bechamel section above — these numbers back the perf
   claims, so CI asserts on the "kernels" object in BENCH_obs.json.
   ======================================================================== *)

let kernel_json : (string * Json.t) list ref = ref []

(* A deterministic balanced instance: integer supplies/demands and dyadic
   eighth costs, so both solvers see bit-identical arithmetic.  Supplies
   start at [m] so every demand bucket stays positive even at n = 1. *)
let transport_instance ~n ~m =
  let supply = Array.init n (fun i -> float_of_int (m + ((i * 5 + 3) mod 9))) in
  let total = int_of_float (Array.fold_left ( +. ) 0.0 supply) in
  let q = total / m and r = total mod m in
  let demand = Array.init m (fun j -> float_of_int (q + if j < r then 1 else 0)) in
  let cost i j = float_of_int (((i * 7) + (j * 13)) mod 8) /. 8.0 in
  (supply, demand, cost)

let kernel_sizes = [ (8, 8); (16, 16); (32, 32); (64, 64); (1, 64); (64, 1) ]

let kernels () =
  section "Kernels" "Dijkstra-potential transport vs reference; span overhead";
  let stage = Bechamel.Staged.stage in
  let tests =
    List.concat_map
      (fun (n, m) ->
        let supply, demand, cost = transport_instance ~n ~m in
        [
          Bechamel.Test.make
            ~name:(Printf.sprintf "transport_ref_%dx%d" n m)
            (stage (fun () -> Webdep_emd.Transport.solve_reference ~supply ~demand ~cost));
          Bechamel.Test.make
            ~name:(Printf.sprintf "transport_new_%dx%d" n m)
            (stage (fun () -> Webdep_emd.Transport.solve ~supply ~demand ~cost));
        ])
      kernel_sizes
  in
  (* Sequential lanes: the old-vs-new ratios are the point here, and
     concurrent lanes sharing cores skew them unpredictably. *)
  let rows = bechamel_rows ~jobs:1 tests in
  let ns_of name =
    match List.assoc_opt ("webdep/" ^ name) rows with Some ns -> ns | None -> nan
  in
  Printf.printf "%-12s %16s %16s %10s\n" "n x m" "reference" "dijkstra" "speedup";
  let transport_json =
    List.map
      (fun (n, m) ->
        let ref_ns = ns_of (Printf.sprintf "transport_ref_%dx%d" n m) in
        let new_ns = ns_of (Printf.sprintf "transport_new_%dx%d" n m) in
        let speedup = ref_ns /. new_ns in
        Printf.printf "%-12s %16s %16s %9.2fx\n"
          (Printf.sprintf "%dx%d" n m)
          (pretty_ns ref_ns) (pretty_ns new_ns) speedup;
        ( Printf.sprintf "%dx%d" n m,
          Json.Obj
            [
              ("ref_ns", Json.Float ref_ns);
              ("new_ns", Json.Float new_ns);
              ("speedup", Json.Float speedup);
            ] ))
      kernel_sizes
  in
  (* Tracing-disabled span overhead: [Span.with_] against the default
     null sink vs the bare closure, amortized over many calls.  Bench
     phases open a handful of spans each, so per-call cost in the tens
     of microseconds would still be invisible — this records the actual
     figure so the "always-on instrumentation is free" claim is checked,
     not assumed. *)
  let span_reps = 50_000 in
  let work = Sys.opaque_identity (fun () -> ignore (Sys.opaque_identity 42)) in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to span_reps do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let bare_s = time work in
  let spanned_s =
    Webdep_obs.Sink.with_sink Webdep_obs.Sink.null (fun () ->
        time (fun () -> Span.with_ ~name:"bench.kernels.span_probe" work))
  in
  let span_ns_per_call = (spanned_s -. bare_s) /. float_of_int span_reps *. 1e9 in
  Printf.printf
    "span overhead (null sink, %d calls): %.0f ns/span — a phase opening 100 spans \
     pays %.2f ms\n"
    span_reps span_ns_per_call
    (float_of_int 100 *. span_ns_per_call /. 1e6);
  kernel_json :=
    [
      ("transport", Json.Obj transport_json);
      ( "span_probe",
        Json.Obj
          [
            ("reps", Json.Int span_reps);
            ("ns_per_call", Json.Float span_ns_per_call);
          ] );
    ]

(* ========================================================================
   Store (always run): the incremental rescore under small churn, on the
   bench world's own 2023 and 2025 datasets for a fixed sample.  A replay
   started from the 2023 sites takes one epoch that churns 2% of each
   country's sites, then rescores every country — the maintained-tally
   delta against a full re-tally of the edited site lists.  CI asserts
   the two agree ("churn_rescore_identical").
   ======================================================================== *)

let store_json : (string * Json.t) list ref = ref []

let store_phase () =
  section "Store" "incremental rescore under 2% churn";
  let sample = [ "US"; "RU"; "BR"; "DE"; "JP"; "IN"; "FR"; "TH" ] in
  let ds25 = Lazy.force ds_2025 in
  let base = List.map (D.country_exn ds) sample in
  let r =
    Epoch.Replay.start
      { Epoch.Log.meta = []; base_epoch = 0; base; events = []; head = 0; dropped = false }
  in
  List.iter (fun cc -> ignore (Epoch.Replay.score r Hosting cc)) sample;
  (* Every 50th site leaves and every 50th 2025 site arrives, unless its
     domain is still present: a replay refuses a duplicate domain. *)
  let changes, edited =
    List.split
      (List.map
         (fun (cd : D.country_data) ->
           let cc = cd.D.country in
           let removed = List.filteri (fun i _ -> i mod 50 = 0) cd.D.sites in
           let keep = List.filter (fun s -> not (List.memq s removed)) cd.D.sites in
           let present = Hashtbl.create (List.length keep) in
           List.iter (fun (s : D.site) -> Hashtbl.replace present s.D.domain ()) keep;
           let added =
             List.filteri (fun i _ -> i mod 50 = 0) (D.country_exn ds25 cc).D.sites
             |> List.filter (fun (s : D.site) -> not (Hashtbl.mem present s.D.domain))
           in
           ( { Epoch.Log.country = cc; removed = List.map (fun (s : D.site) -> s.D.domain) removed; added },
             { D.country = cc; D.sites = keep @ added } ))
         base)
  in
  let incr_scores, churn_incr_s =
    Span.timed ~name:"bench.store.churn_incremental" (fun () ->
        Epoch.Replay.apply r { Epoch.Log.epoch = 1; changes };
        List.map (fun cc -> Epoch.Replay.score r Hosting cc) sample)
  in
  let full_scores, churn_full_s =
    Span.timed ~name:"bench.store.churn_full" (fun () ->
        let edited_ds = D.of_country_data edited in
        List.map (fun cc -> Metrics.centralization edited_ds Hosting cc) sample)
  in
  let churn_identical = incr_scores = full_scores in
  Printf.printf
    "2%%-churn rescore (%d countries): full re-tally %.2fms, incremental %.2fms \
     (x%.1f), identical: %b\n"
    (List.length sample) (1e3 *. churn_full_s) (1e3 *. churn_incr_s)
    (churn_full_s /. churn_incr_s) churn_identical;
  if not churn_identical then
    prerr_endline "webdep bench: WARNING: incremental rescore differs from full";
  store_json :=
    [
      ("countries", Json.Int (List.length sample));
      ("churn_full_s", Json.Float churn_full_s);
      ("churn_incremental_s", Json.Float churn_incr_s);
      ("churn_rescore_identical", Json.Bool churn_identical);
    ]

(* ========================================================================
   Faults (always run): the robustness plane's cost and behaviour.
   Three sequential sweeps over the same fixed sample:
     clean      measure_all, no fault plumbing at all
     zero_rate  measure_sweep with an enabled rate-0 plan + retries —
                every query consults the plan but nothing ever fires;
                its wall clock against "clean" is the overhead claim,
                and the datasets must be identical
     faulted    rate 0.05 with 3 retries — how much slower, how many
                faults fired, how many queries recovered, and whether
                every country still clears the coverage threshold
   ======================================================================== *)

module Faults = Webdep_faults.Fault_plan
module Retry = Webdep_faults.Retry

let faults_json : (string * Json.t) list ref = ref []

let faults () =
  section "Faults" "fault-injection overhead, retry recovery, coverage";
  let sample = [ "US"; "RU"; "BR"; "DE"; "JP"; "IN"; "FR"; "TH" ] in
  let counter name = Obs_metrics.value (Obs_metrics.counter name) in
  let clean_ds, clean_s =
    Span.timed ~name:"bench.faults.measure_clean" (fun () ->
        Measure.measure_all ~countries:sample ~jobs:1 world)
  in
  let zero_opts =
    {
      Measure.plan = Faults.make ~rate:0.0 ~seed:7 ();
      retry = Retry.of_max_retries 3;
      coverage_threshold = 0.9;
    }
  in
  let zero_sweep, zero_s =
    Span.timed ~name:"bench.faults.measure_zero_rate" (fun () ->
        Measure.measure_sweep ~countries:sample ~jobs:1 ~faults:zero_opts world)
  in
  let identical =
    List.for_all
      (fun cc ->
        D.country_exn clean_ds cc = D.country_exn zero_sweep.Measure.dataset cc)
      sample
  in
  (* Counter deltas isolate the faulted run: fault.injected.* can only
     fire there, but retry.* may also move on genuine transient errors
     in the zero-rate sweep. *)
  let retry_before = counter "retry.attempts" in
  let faulted_opts =
    { zero_opts with plan = Faults.make ~rate:0.05 ~seed:7 () }
  in
  let faulted_sweep, faulted_s =
    Span.timed ~name:"bench.faults.measure_faulted" (fun () ->
        Measure.measure_sweep ~countries:sample ~jobs:1 ~faults:faulted_opts world)
  in
  let injected_kinds =
    [
      "dns_timeout"; "dns_servfail"; "dns_refused"; "tls_truncated"; "tls_failed";
    ]
    |> List.map (fun k -> (k, counter ("fault.injected." ^ k)))
  in
  let injected_total = List.fold_left (fun acc (_, v) -> acc + v) 0 injected_kinds in
  let retry_attempts = counter "retry.attempts" - retry_before in
  let recovered = counter "retry.recovered" in
  let exhausted = counter "retry.exhausted" in
  let degraded = counter "pipeline.sites.degraded" in
  let failed = counter "pipeline.sites.failed" in
  let insufficient = List.length faulted_sweep.Measure.insufficient in
  Printf.printf
    "measure (%d countries, --jobs 1): clean %.2fs, rate-0 plan %.2fs (x%.2f overhead), \
     datasets identical: %b\n"
    (List.length sample) clean_s zero_s (zero_s /. clean_s) identical;
  Printf.printf
    "rate 0.05 + 3 retries: %.2fs (x%.2f), %d faults injected, %d retries \
     (%d recovered, %d exhausted), %d degraded / %d failed sites, %d countries \
     below coverage threshold\n"
    faulted_s (faulted_s /. clean_s) injected_total retry_attempts recovered
    exhausted degraded failed insufficient;
  if not identical then
    prerr_endline "webdep bench: WARNING: rate-0 fault sweep differs from measure_all";
  faults_json :=
    [
      ("countries", Json.Int (List.length sample));
      ("clean_s", Json.Float clean_s);
      ("zero_rate_s", Json.Float zero_s);
      ("overhead", Json.Float (zero_s /. clean_s));
      ("identical", Json.Bool identical);
      ("faulted_s", Json.Float faulted_s);
      ( "injected",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) injected_kinds) );
      ("injected_total", Json.Int injected_total);
      ("retry_attempts", Json.Int retry_attempts);
      ("retry_recovered", Json.Int recovered);
      ("retry_exhausted", Json.Int exhausted);
      ("sites_degraded", Json.Int degraded);
      ("sites_failed", Json.Int failed);
      ("insufficient_countries", Json.Int insufficient);
    ]

(* ========================================================================
   Scale (always run): the paper-scale sweep claim.  Fresh worlds at
   each toplist size in WEBDEP_BENCH_SCALE_CS (default "300,2000"; the
   full-paper sweep adds 10000), measured end to end through the
   streaming pipeline, recording wall seconds, minor-heap allocation and
   the Gc.top_heap_words high-water mark.  Each size also lands in
   phases_s / phases_minor_words as scale_c<N>, so --compare gates it
   like any other phase.  top_heap_words here is cumulative over every
   earlier bench phase — an upper bound; the CI budget assert runs
   [webdep scale] in a fresh process instead.
   ======================================================================== *)

let scale_cs =
  let spec =
    match Sys.getenv_opt "WEBDEP_BENCH_SCALE_CS" with
    | Some s when s <> "" -> s
    | _ -> "300,2000"
  in
  String.split_on_char ',' spec
  |> List.filter_map int_of_string_opt
  |> List.filter (fun n -> n > 0)

let scale_json : (string * Json.t) list ref = ref []

let scale_phase () =
  section "Scale" "paper-scale sweeps: seconds, minor words, peak heap";
  let results =
    List.map
      (fun sc ->
        let r = Webdep_pipeline.Scale.run ~seed ~jobs ~c:sc () in
        record_phase (Printf.sprintf "scale_c%d" sc) r.Webdep_pipeline.Scale.seconds;
        record_minor_words
          (Printf.sprintf "scale_c%d" sc)
          r.Webdep_pipeline.Scale.minor_words;
        Printf.printf
          "c=%5d: %3d countries, %7d sites, %6.2fs, %11.0f minor words, \
           top_heap %9d words, mean hosting S %.4f\n%!"
          sc r.Webdep_pipeline.Scale.countries r.Webdep_pipeline.Scale.sites
          r.Webdep_pipeline.Scale.seconds r.Webdep_pipeline.Scale.minor_words
          r.Webdep_pipeline.Scale.top_heap_words
          r.Webdep_pipeline.Scale.mean_hosting_s;
        r)
      scale_cs
  in
  scale_json :=
    List.map
      (fun (r : Webdep_pipeline.Scale.result) ->
        ( Printf.sprintf "c%d" r.c,
          Json.Obj
            [
              ("countries", Json.Int r.countries);
              ("sites", Json.Int r.sites);
              ("seconds", Json.Float r.seconds);
              ("minor_words", Json.Float r.minor_words);
              ("top_heap_words", Json.Int r.top_heap_words);
              ("mean_hosting_s", Json.Float r.mean_hosting_s);
            ] ))
      results

(* ========================================================================
   serve phase — the batched query daemon under closed-loop load
   ======================================================================== *)

module Serve = Webdep_serve

(* The serve and epoch phases share one two-epoch fixture at the
   paper-scale floor, independent of the bench's own -c so their numbers
   compare across bench configs.  At c = fixture_c it is the bench
   world's own datasets: a world's datasets do not depend on what it
   measured before.  Otherwise the first phase that needs it builds a
   fixture_c world and pays for the two sweeps. *)
let fixture_c = 300

let fixture =
  lazy
    (if c = fixture_c then (ds, Lazy.force ds_2025)
     else
       let w = World.create ~c:fixture_c ~seed () in
       (Measure.measure_all ~jobs w, Measure.measure_all ~epoch:World.May_2025 ~jobs w))

let serve_n = 40_000
let serve_clients = max 2 (min 4 jobs)

(* Deterministic query mix cycling every kind, epoch and layer over the
   state's country list — the same stream regardless of client count. *)
let serve_mix countries n offset =
  let layers = [| D.Hosting; D.Dns; D.Ca; D.Tld |] in
  let epochs = [| "2023-05"; "2025-05" |] in
  let ccs = Array.of_list countries in
  List.init n (fun j ->
      let i = offset + j in
      let country = ccs.(i mod Array.length ccs) in
      let layer = layers.(i mod 4) in
      let epoch = epochs.(i mod 2) in
      match i mod 5 with
      | 0 -> Serve.Protocol.Score { epoch; layer; country }
      | 1 -> Serve.Protocol.Top_shares { epoch; layer; country; k = 10 }
      | 2 -> Serve.Protocol.Ranking { epoch; layer; k = 20 }
      | 3 ->
          Serve.Protocol.Delta
            { layer; country; old_epoch = "2023-05"; new_epoch = "2025-05" }
      | _ -> Serve.Protocol.Ping)

let serve_json : (string * Json.t) list ref = ref []

let serve_phase () =
  section "Serve" "batched dependence-query daemon under closed-loop load";
  let state, build_s =
    Span.timed ~name:"bench.serve.build" (fun () ->
        let ds23, ds25 = Lazy.force fixture in
        Serve.State.make ~fingerprint:"bench-serve" [ ("2023-05", ds23); ("2025-05", ds25) ])
  in
  let path = Filename.temp_file "webdep_bench_serve" ".sock" in
  Sys.remove path;
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          (Serve.Server.config path)
          state)
  in
  while not (Atomic.get ready) do
    ignore (Unix.select [] [] [] 0.005)
  done;
  let countries = Serve.State.countries state in
  (* Byte-identity across the wire: the daemon's encoded reply must equal
     the local [State.answer] encoding for every query kind. *)
  let identical =
    let cl = Serve.Client.connect path in
    let ok =
      List.for_all
        (fun req ->
          Serve.Protocol.encode_response (Serve.Client.request cl req)
          = Serve.Protocol.encode_response (Serve.State.answer state req))
        (serve_mix countries 10 0)
    in
    Serve.Client.close cl;
    ok
  in
  (* Closed-loop load: each client domain holds one connection and keeps
     exactly one request in flight, so qps is throughput under strict
     request-reply pacing (no open-loop pile-up). *)
  let n_per = serve_n / serve_clients in
  let (), load_s =
    Span.timed ~name:"bench.serve.load" (fun () ->
        let clients =
          List.init serve_clients (fun i ->
              Domain.spawn (fun () ->
                  let reqs = serve_mix countries n_per (i * n_per) in
                  let cl = Serve.Client.connect path in
                  List.iter (fun r -> ignore (Serve.Client.request cl r)) reqs;
                  Serve.Client.close cl))
        in
        List.iter Domain.join clients)
  in
  let n_sent = n_per * serve_clients in
  let qps = float_of_int n_sent /. load_s in
  (* Registry reads before the between-phase reset; the server-side
     latency histogram covers arrival -> reply-queued per request. *)
  let q h p =
    match Obs_metrics.quantile h p with Some v -> v | None -> 0.0
  in
  let lat = Obs_metrics.histogram "serve.latency_s" in
  let h_queue = Obs_metrics.histogram "serve.queue_depth" in
  let h_batch = Obs_metrics.histogram "serve.batch_size" in
  let queue_max = Option.value ~default:0.0 (Obs_metrics.max_value h_queue) in
  let count name = Obs_metrics.value (Obs_metrics.counter name) in
  let cache_hits = count "serve.cache.hits" in
  let cache_misses = count "serve.cache.misses" in
  let shed = count "serve.shed" in
  serve_json :=
    [
      ("c", Json.Int fixture_c);
      ("clients", Json.Int serve_clients);
      ("requests", Json.Int n_sent);
      ("build_s", Json.Float build_s);
      ("load_s", Json.Float load_s);
      ("qps", Json.Float qps);
      ("latency_p50_us", Json.Float (1e6 *. q lat 0.50));
      ("latency_p99_us", Json.Float (1e6 *. q lat 0.99));
      ("latency_p999_us", Json.Float (1e6 *. q lat 0.999));
      ("latency_mean_us", Json.Float (1e6 *. Obs_metrics.mean lat));
      ("queue_depth_mean", Json.Float (Obs_metrics.mean h_queue));
      ("queue_depth_max", Json.Float queue_max);
      ("batch_size_mean", Json.Float (Obs_metrics.mean h_batch));
      ("cache_hits", Json.Int cache_hits);
      ("cache_misses", Json.Int cache_misses);
      ("shed", Json.Int shed);
      ("identical", Json.Bool identical);
    ];
  Printf.printf
    "c=%d build %.2fs | %d clients x %d reqs in %.3fs = %8.0f qps\n\
     latency us: p50 %.1f  p99 %.1f  p999 %.1f  mean %.1f\n\
     queue depth: mean %.2f max %.0f | batch mean %.2f | cache %d hit / %d \
     miss | shed %d | byte-identical: %s\n%!"
    fixture_c build_s serve_clients n_per load_s qps
    (1e6 *. q lat 0.50) (1e6 *. q lat 0.99) (1e6 *. q lat 0.999)
    (1e6 *. Obs_metrics.mean lat)
    (Obs_metrics.mean h_queue) queue_max (Obs_metrics.mean h_batch)
    cache_hits cache_misses shed
    (if identical then "yes" else "NO");
  (* Clean shutdown: Shutdown -> Bye, server drains and unlinks socket. *)
  let cl = Serve.Client.connect path in
  (match Serve.Client.request cl Serve.Protocol.Shutdown with
  | Serve.Protocol.Bye -> ()
  | _ -> prerr_endline "webdep bench: serve shutdown did not answer Bye");
  Serve.Client.close cl;
  Domain.join server

(* ========================================================================
   chaos phase — wire faults under load, then crash + warm restart
   ======================================================================== *)

(* The chaos phase keeps a smaller world of its own: its recovery
   speedup is measured against that world's build. *)
let chaos_c = 120
let chaos_n = 400
let chaos_json : (string * Json.t) list ref = ref []

(* Two questions, both gated by --compare:
   1. Under a deterministic storm of wire faults (torn frames, dribbled
      writes, resets mid-frame, garbage length prefixes — verdicts are a
      pure hash of (seed, key), so the storm replays identically at any
      --jobs), what fraction of the replies the server *owes* does it
      deliver, and are they all byte-identical to [State.answer]?
   2. After a crash, how fast does resuming both epochs from the sweep
      checkpoint bring a correct answer back, versus the cold start that
      wrote it?  The crash is modelled in process — state discarded,
      both sweeps resumed on the same world, fresh server domain —
      because forking with live domains is forbidden in OCaml 5; CI
      exercises the real kill -9 path. *)
let chaos_phase () =
  section "Chaos" "deterministic wire faults, crash, restart from the sweep checkpoint";
  let ckpt = Filename.temp_file "webdep_bench_chaos" ".ckpt" in
  Sys.remove ckpt;
  (* Both epochs swept through one checkpoint, as [webdep serve
     --checkpoint] starts; the flag says whether every shard resumed. *)
  let sweep_state sw =
    let sweeps =
      List.map
        (fun e ->
          (World.epoch_name e, Measure.measure_sweep ~epoch:e ~jobs ~checkpoint:ckpt sw))
        [ World.May_2023; World.May_2025 ]
    in
    ( Serve.State.make (List.map (fun (name, s) -> (name, s.Measure.dataset)) sweeps),
      List.for_all
        (fun (_, s) ->
          List.for_all (fun (cv : Measure.country_coverage) -> cv.resumed) s.Measure.coverage)
        sweeps )
  in
  let build () =
    let sw = World.create ~c:chaos_c ~seed () in
    (sw, fst (sweep_state sw))
  in
  let (sw, state), build_s = Span.timed ~name:"bench.chaos.build" build in
  let countries = Serve.State.countries state in
  let path = Filename.temp_file "webdep_bench_chaos" ".sock" in
  Sys.remove path;
  let start st =
    let ready = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          Serve.Server.run
            ~on_ready:(fun () -> Atomic.set ready true)
            (Serve.Server.config path)
            st)
    in
    while not (Atomic.get ready) do
      ignore (Unix.select [] [] [] 0.005)
    done;
    d
  in
  let local req =
    Serve.Protocol.encode_response (Serve.State.answer state req)
  in
  let server = start state in
  let plan = Faults.make ~rate:0.4 ~seed:(seed + 9) () in
  let reqs = Array.of_list (serve_mix countries 64 0) in
  let replies = ref 0 and injected = ref 0 in
  let refused = ref 0 and broken = ref 0 and mismatched = ref 0 in
  let (), storm_s =
    Span.timed ~name:"bench.chaos.storm" (fun () ->
        for i = 0 to chaos_n - 1 do
          let req = reqs.(i mod Array.length reqs) in
          let key = Printf.sprintf "bench-chaos-%d" i in
          match snd (Serve.Chaos.call plan ~key path req) with
          | Serve.Chaos.Reply resp ->
              incr replies;
              if Serve.Protocol.encode_response resp <> local req then
                incr mismatched
          | Serve.Chaos.Injected -> incr injected
          | Serve.Chaos.Refused _ -> incr refused
          | Serve.Chaos.Broken _ -> incr broken
        done)
  in
  (* Replies owed = clean or reassembled exchanges; the injected ones owe
     nothing.  Availability is delivered/owed. *)
  let owed = !replies + !refused + !broken in
  let availability = float_of_int !replies /. float_of_int (max 1 owed) in
  let cl = Serve.Client.connect path in
  (match Serve.Client.request cl Serve.Protocol.Shutdown with
  | Serve.Protocol.Bye -> ()
  | _ -> prerr_endline "webdep bench: chaos server shutdown did not answer Bye");
  Serve.Client.close cl;
  Domain.join server;
  (* Crash + restart: drop the state, then time resuming both epochs
     from the checkpoint -> state -> server -> first correct answer. *)
  let probe = serve_mix countries 16 0 in
  let expected = List.map local probe in
  let (d, cl, resumed_all, first), recovery_s =
    Span.timed ~name:"bench.chaos.recover" (fun () ->
        let st, resumed_all = sweep_state sw in
        let d = start st in
        let cl = Serve.Client.connect path in
        (d, cl, resumed_all, Serve.Client.request cl (List.hd probe)))
  in
  if not resumed_all then
    prerr_endline "webdep bench: chaos restart re-measured a checkpointed shard";
  let rest = List.map (fun r -> Serve.Client.request cl r) (List.tl probe) in
  let recovered_identical =
    resumed_all && List.map Serve.Protocol.encode_response (first :: rest) = expected
  in
  (match Serve.Client.request cl Serve.Protocol.Shutdown with
  | Serve.Protocol.Bye -> ()
  | _ -> prerr_endline "webdep bench: recovered server did not answer Bye");
  Serve.Client.close cl;
  Domain.join d;
  Sys.remove ckpt;
  let speedup = build_s /. (if recovery_s > 0.0 then recovery_s else 1e-9) in
  chaos_json :=
    [
      ("c", Json.Int chaos_c);
      ("requests", Json.Int chaos_n);
      ("build_s", Json.Float build_s);
      ("storm_s", Json.Float storm_s);
      ("replies", Json.Int !replies);
      ("injected", Json.Int !injected);
      ("refused", Json.Int !refused);
      ("broken", Json.Int !broken);
      ("mismatched", Json.Int !mismatched);
      ("availability", Json.Float availability);
      ("recovery_s", Json.Float recovery_s);
      ("recovery_speedup", Json.Float speedup);
      ("recovered_identical", Json.Bool recovered_identical);
    ];
  Printf.printf
    "c=%d build %.2fs | storm: %d calls in %.3fs — %d replies / %d injected \
     / %d refused / %d broken / %d mismatched | availability %.4f\n\
     crash recovery: %.3fs from the checkpoint (%.0fx faster than the \
     %.2fs cold start) | byte-identical after restart: %s\n%!"
    chaos_c build_s chaos_n storm_s !replies !injected !refused !broken
    !mismatched availability recovery_s speedup build_s
    (if recovered_identical then "yes" else "NO")

(* ========================================================================
   Epoch churn-log replay (always runs): O(churn) per-epoch rescoring
   versus a full re-sweep at every epoch, compaction ratio, and the
   warm-start flatness claim — a compacted long history restarts as fast
   as a genuinely short one.  CI asserts on the "epoch" object.
   ======================================================================== *)

let epoch_n = 24
let epoch_churn = 0.02
let epoch_json : (string * Json.t) list ref = ref []

let epoch_phase () =
  section "Epoch"
    "churn-log replay: O(churn) rescoring vs per-epoch full re-sweeps";
  let ds23, ds25 = Lazy.force fixture in
  let base = List.map (D.country_exn ds23) (D.countries ds23) in
  let donors =
    List.map
      (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites))
      (D.countries ds25)
  in
  let events =
    Epoch.Synth.generate ~seed ~fraction:epoch_churn ~epochs:epoch_n
      ~base_epoch:0 ~base ~donors
  in
  let log_path = Filename.temp_file "webdep_bench_epoch" ".log" in
  let (), append_s =
    Span.timed ~name:"bench.epoch.append" (fun () ->
        Epoch.Log.create ~path:log_path ~base_epoch:0 ~base ();
        List.iter
          (fun (ev : Epoch.Log.event) ->
            Epoch.Log.append ~path:log_path ~epoch:ev.Epoch.Log.epoch
              ev.Epoch.Log.changes)
          events)
  in
  let log =
    match Epoch.Log.load ~path:log_path with
    | Epoch.Log.Loaded l -> l
    | _ -> failwith "bench epoch: freshly written log must load"
  in
  (* Replay side: fold each epoch through the per-layer tallies and
     read every country's hosting score — O(churn + countries)/epoch. *)
  let inc_scores = ref [] in
  let _, replay_s =
    Span.timed ~name:"bench.epoch.replay" (fun () ->
        Epoch.Replay.replay
          ~observe:(fun r ->
            inc_scores := Epoch.Replay.scores r D.Hosting :: !inc_scores)
          log)
  in
  let inc_scores = List.rev !inc_scores in
  (* Cold side: what the no-log pipeline would do — rebuild the full
     dataset at every epoch and re-tally every country from scratch. *)
  let cold_scores = ref [] in
  let _, full_s =
    Span.timed ~name:"bench.epoch.full" (fun () ->
        Epoch.Replay.replay
          ~observe:(fun r ->
            let ds = D.of_country_data (Epoch.Replay.materialize r) in
            cold_scores := Metrics.all_scores ds D.Hosting :: !cold_scores)
          log)
  in
  let cold_scores = List.rev !cold_scores in
  (* Every epoch's scores must agree bit-for-bit (the cold list is
     rank-sorted, the incremental one is in baseline order). *)
  let by_cc l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let identical =
    List.length inc_scores = List.length cold_scores
    && List.for_all2
         (fun a b ->
           let a = by_cc a and b = by_cc b in
           List.length a = List.length b
           && List.for_all2
                (fun (cc1, s1) (cc2, s2) ->
                  String.equal cc1 cc2
                  && Int64.equal (Int64.bits_of_float s1) (Int64.bits_of_float s2))
                a b)
         inc_scores cold_scores
  in
  let speedup = full_s /. (if replay_s > 0.0 then replay_s else 1e-9) in
  (* Compaction: collapse all but the last 4 epochs; the file shrinks and
     a warm start costs what a genuinely 4-epoch history costs. *)
  let raw_bytes = (Unix.stat log_path).Unix.st_size in
  let compacted = Epoch.Replay.compact log ~keep_last:4 in
  let compact_path = Filename.temp_file "webdep_bench_epoch" ".compact.log" in
  Epoch.Log.write ~path:compact_path compacted;
  let compacted_bytes = (Unix.stat compact_path).Unix.st_size in
  let short_path = Filename.temp_file "webdep_bench_epoch" ".short.log" in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  Epoch.Log.create ~path:short_path ~base_epoch:0 ~base ();
  List.iter
    (fun (ev : Epoch.Log.event) ->
      Epoch.Log.append ~path:short_path ~epoch:ev.Epoch.Log.epoch
        ev.Epoch.Log.changes)
    (take 4 events);
  let warm_start path =
    snd
      (Span.timed ~name:"bench.epoch.warm" (fun () ->
           match Epoch.Log.load ~path with
           | Epoch.Log.Loaded l -> ignore (Epoch.Replay.replay l)
           | _ -> failwith "bench epoch: warm-start log must load"))
  in
  let warm_short_s = warm_start short_path in
  let warm_compacted_s = warm_start compact_path in
  let warm_ratio =
    warm_compacted_s /. (if warm_short_s > 0.0 then warm_short_s else 1e-9)
  in
  Sys.remove log_path;
  Sys.remove compact_path;
  Sys.remove short_path;
  epoch_json :=
    [
      ("c", Json.Int fixture_c);
      ("epochs", Json.Int epoch_n);
      ("churn", Json.Float epoch_churn);
      ("append_s", Json.Float append_s);
      ("replay_s", Json.Float replay_s);
      ("full_s", Json.Float full_s);
      ("speedup", Json.Float speedup);
      ("identical", Json.Bool identical);
      ("raw_bytes", Json.Int raw_bytes);
      ("compacted_bytes", Json.Int compacted_bytes);
      ("warm_short_s", Json.Float warm_short_s);
      ("warm_compacted_s", Json.Float warm_compacted_s);
      ("warm_ratio", Json.Float warm_ratio);
    ];
  Printf.printf
    "epoch c=%d: %d epochs at %.0f%% churn | append %.3fs, replay %.3fs vs \
     full %.3fs (%.1fx) | scores bit-identical at every epoch: %s\n\
     compaction: %d -> %d bytes | warm start: 4-epoch %.3fs vs compacted \
     %d-epoch %.3fs (ratio %.2f)\n%!"
    fixture_c epoch_n (100.0 *. epoch_churn) append_s replay_s full_s speedup
    (if identical then "yes" else "NO")
    raw_bytes compacted_bytes warm_short_s epoch_n warm_compacted_s warm_ratio

(* ========================================================================
   main
   ======================================================================== *)

(* Per-phase nonzero counters, captured before each between-phase reset:
   what each table/figure consumed from the pipeline and simulators. *)
let phase_counters : (string * (string * int) list) list ref = ref []

(* BENCH_obs.json, schema webdep-bench/10 (upgrades /9: the new "epoch"
   object and the "epoch" entry in phases_s / phases_minor_words —
   churn-log replay speedup, per-epoch score bit-identity, compaction
   ratio and warm-start flatness, gated by --compare like any phase):
   - phases_s:        bench-locally recorded per-phase wall seconds
                      (includes world_create / measure_all / the 2025
                      measurement inside "longitudinal")
   - phases_minor_words: per-phase minor-heap allocation (Gc.minor_words
                      deltas) — the noise-free companion to phases_s
   - phase_counters:  nonzero counters attributable to each phase alone
   - metrics:         the registry snapshot taken right after the
                      measurement sweep (pipeline counters/histograms)
   - speedup_probe:   seq-vs-par wall clock + determinism check
                      (absent at --jobs 1)
   - kernels:         hot-path micro-benchmarks — transport solver
                      old-vs-new ns/run per shape, and the span probe
   - store:           full-vs-incremental rescore timing under 2% churn
                      over a fixed sample, with the bit-identity verdict
   - faults:          robustness-plane cost — rate-0 plan overhead vs
                      plain measure_all (with the identity verdict) and
                      the rate-0.05 sweep's injection/retry/coverage
                      totals
   - scale:           per-toplist-size sweep telemetry (fresh world per
                      size): countries, sites, seconds, minor words,
                      top_heap_words, mean hosting S
   - serve:           batched query-daemon load test on the shared
                      c=300 two-epoch fixture — closed-loop qps,
                      server-side latency p50/p99/p999 (interpolated
                      histogram quantiles), queue-depth / batch-size
                      stats, cache hit/miss and shed totals, and the
                      wire-vs-local byte-identity verdict
   - chaos:           crash-safety telemetry — deterministic wire-fault
                      storm taxonomy (replies/injected/refused/broken/
                      mismatched) with the availability ratio over owed
                      replies, and the crash-recovery time from the
                      sweep checkpoint versus the cold two-epoch sweep
                      that wrote it, with the after-restart
                      byte-identity verdict
   - epoch:           churn-log replay telemetry — append/replay wall
                      clock versus a full per-epoch re-sweep (speedup),
                      per-epoch score bit-identity, raw-vs-compacted log
                      bytes, and warm-start seconds for a genuinely
                      short history versus a compacted long one *)
let write_bench_json path =
  let phases =
    List.rev_map (fun (name, s) -> (name, Json.Float s)) !recorded_phases
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let minor_words =
    List.rev_map (fun (name, w) -> (name, Json.Float w)) !recorded_minor_words
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 !recorded_phases in
  let counters_json =
    List.rev_map
      (fun (name, cs) ->
        (name, Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs)))
      !phase_counters
  in
  let speedup_json =
    match speedup with
    | None -> []
    | Some p ->
        [
          ( "speedup_probe",
            Json.Obj
              [
                ("countries", Json.Int p.probe_countries);
                ("seq_s", Json.Float p.seq_s);
                ("par_s", Json.Float p.par_s);
                ("speedup", Json.Float p.speedup);
                ("identical", Json.Bool p.identical);
              ] );
        ]
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "webdep-bench/10");
         ("c", Json.Int c);
         ("seed", Json.Int seed);
         ("jobs", Json.Int jobs);
         ("total_s", Json.Float total);
         ("phases_s", Json.Obj phases);
         ("phases_minor_words", Json.Obj minor_words);
         ("phase_counters", Json.Obj counters_json);
       ]
      @ speedup_json
      @ [
          ("kernels", Json.Obj !kernel_json);
          ("store", Json.Obj !store_json);
          ("faults", Json.Obj !faults_json);
          ("scale", Json.Obj !scale_json);
          ("serve", Json.Obj !serve_json);
          ("chaos", Json.Obj !chaos_json);
          ("epoch", Json.Obj !epoch_json);
          ("metrics", measure_metrics);
        ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path;
  total

let () =
  let phase name f =
    let f =
      match injected_sleep with
      | Some (n, s) when n = name ->
          fun () ->
            Unix.sleepf s;
            f ()
      | _ -> f
    in
    let minor_before = Gc.minor_words () in
    let (), seconds = Span.timed ~name:("bench." ^ name) f in
    record_phase name seconds;
    record_minor_words name (Gc.minor_words () -. minor_before);
    let nonzero =
      Obs_metrics.fold_counters
        (fun cnt acc ->
          let v = Obs_metrics.value cnt in
          if v > 0 then (Obs_metrics.counter_name cnt, v) :: acc else acc)
        []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    if nonzero <> [] then phase_counters := (name, nonzero) :: !phase_counters;
    (* Zero everything so the next phase's counters are its own. *)
    Webdep_obs.Registry.reset ()
  in
  List.iter
    (fun (name, f) -> phase name f)
    [
      ("fig1", fig1); ("fig2", fig2); ("fig3", fig3); ("fig4", fig4);
      ("table1", table1); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
      ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
      ("fig12", fig12); ("fig13", fig13); ("table2", table2); ("table3", table3);
      ("fig14", fig14); ("fig15", fig15); ("fig16", fig16); ("fig17", fig17);
      ("fig18", fig18); ("fig19", fig19); ("fig20", fig20); ("fig21", fig21);
      ("fig22", fig22); ("table5", table5); ("table6", table6); ("table7", table7);
      ("table8", table8); ("vantage", vantage); ("longitudinal", longitudinal);
      ("correlations", correlations); ("language_case_study", language_case_study);
      ("redundancy_study", redundancy_study); ("external_tlds", external_tlds);
      ("baselines", baselines); ("weighted_and_pairwise", weighted_and_pairwise);
      ("shape_similarity", shape_similarity); ("state_ca", state_ca);
      ("crux_coverage", crux_coverage); ("substrate_validation", substrate_validation);
      ("ablation_fdiv", ablation_fdiv); ("ablation_emd", ablation_emd);
      ("ablation_endemicity", ablation_endemicity);
      ("ablation_clustering", ablation_clustering);
      ("ablation_c_sensitivity", ablation_c_sensitivity);
    ];
  if Sys.getenv_opt "WEBDEP_BENCH_SKIP_TIMINGS" = None then phase "timings" timings;
  (* The kernels, store, faults, scale, serve, chaos and epoch phases
     always run — CI's BENCH diff asserts on them. *)
  phase "kernels" kernels;
  phase "store" store_phase;
  phase "faults" faults;
  phase "scale" scale_phase;
  phase "serve" serve_phase;
  phase "chaos" chaos_phase;
  phase "epoch" epoch_phase;
  let out =
    match Sys.getenv_opt "WEBDEP_BENCH_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_obs.json"
  in
  let total = write_bench_json out in
  Printf.printf "\ntotal bench time: %.1fs\n" total;
  (* --compare: gate this run against a saved baseline.  Current phases
     are re-read from the file just written, so the gate sees exactly
     what a later run would load.  The noise probe re-measures a single
     country a few times to learn this machine's run-to-run spread. *)
  match baseline with
  | None -> ()
  | Some baseline ->
      let current =
        Webdep_prof.Regress.phases_of_json
          (Json.parse (In_channel.with_open_bin out In_channel.input_all))
      in
      let noise_cv =
        Webdep_prof.Regress.noise_probe ~runs:3 (fun () ->
            ignore
              (Measure.measure_all ~countries:[ "US"; "DE"; "JP"; "BR" ] ~jobs:1 world))
      in
      let report =
        Webdep_prof.Regress.compare_runs ~noise_cv ~baseline ~current ()
      in
      print_newline ();
      print_string (Webdep_prof.Regress.render report);
      if not report.Webdep_prof.Regress.ok then exit 3
