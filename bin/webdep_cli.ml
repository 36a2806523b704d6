(* webdep — command-line interface to the dependence toolkit.

   Subcommands:
     scores       per-country centralization scores for a layer
     report       full dependence report for one country
     insularity   per-country insularity for a layer
     classify     provider classes (Tables 1-3)
     usage        usage/endemicity statistics for one provider
     longitudinal 2023 vs 2025 comparison
     validate     vantage-point validation sweep
     paper        print the embedded Appendix-F reference table
     countries    list the 150 dataset countries
     serve        long-running batched dependence-query daemon
     query        one dependence query, locally or against a daemon
     epochs       build/replay/verify/compact a multi-epoch churn log *)

open Cmdliner

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Scores = Webdep_reference.Paper_scores

(* --- shared arguments -------------------------------------------------- *)

let layer_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Scores.layer_of_name s) in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Scores.layer_name l))

let layer_arg =
  Arg.(value & opt layer_conv Scores.Hosting & info [ "l"; "layer" ] ~docv:"LAYER"
         ~doc:"Infrastructure layer: hosting, dns, ca or tld.")

let seed_arg =
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc:"World seed.")

let c_arg =
  Arg.(value & opt int 2000 & info [ "c"; "toplist" ] ~docv:"N"
         ~doc:"Websites per country (the paper uses 10000).")

(* A country code, checked when arguments parse: any case is accepted,
   and a code outside the 150 is a command-line error (exit 124) before
   any world is built. *)
let cc_conv =
  let parse s =
    let cc = String.uppercase_ascii s in
    if Webdep_geo.Country.mem cc then Ok cc
    else
      Error (`Msg (Printf.sprintf "unknown country code %S (see 'webdep countries')" s))
  in
  Arg.conv (parse, Format.pp_print_string)

(* [None] is all 150; a repeated code keeps its first place only. *)
let countries_arg =
  let first_of_each ccs =
    match List.fold_left (fun acc cc -> if List.mem cc acc then acc else cc :: acc) [] ccs with
    | [] -> None
    | rev -> Some (List.rev rev)
  in
  Term.(
    const first_of_each
    $ Arg.(value & opt (list cc_conv) [] & info [ "countries" ] ~docv:"CC,CC,..."
             ~doc:"Restrict to these country codes (default: all 150); a \
                   repeated code counts once."))

let top_arg =
  Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows to print.")

(* --- refusals ------------------------------------------------------------- *)

(* A file the user named that cannot be created or written: the path as
   given and the system's reason. *)
exception Cannot_write of string * string

(* Run [f], which creates or writes [path]. *)
let writing path f =
  try f () with
  | Sys_error msg ->
      (* "FILE: reason", where FILE may be a temporary name next to [path]. *)
      let why =
        match String.rindex_opt msg ':' with
        | Some i when i + 2 <= String.length msg ->
            String.sub msg (i + 2) (String.length msg - i - 2)
        | _ -> msg
      in
      raise (Cannot_write (path, why))
  | Unix.Unix_error (e, _, _) -> raise (Cannot_write (path, Unix.error_message e))

(* A sweep that appends to the --checkpoint file, when there is one. *)
let checkpointed checkpoint sweep =
  match checkpoint with Some path -> writing path sweep | None -> sweep ()

(* Exceptions that refuse the user's input rather than report a fault:
   print their one line and give the exit status.  A world too small to
   calibrate is bad input (124, like a bad flag); a --checkpoint file
   that is not a checkpoint, or an output file that cannot be written,
   is refused with 1, as an unusable epoch log is. *)
let refused e =
  let refuse code msg =
    Printf.eprintf "webdep: %s\n%!" msg;
    Some code
  in
  match e with
  | World.Uncalibrated u -> refuse 124 (World.uncalibrated_message u)
  | Webdep_faults.Checkpoint.Not_a_checkpoint path ->
      refuse 1
        (Printf.sprintf "checkpoint %s unusable: not a webdep checkpoint, left untouched" path)
  | Cannot_write (path, why) -> refuse 1 (Printf.sprintf "cannot write %s: %s" path why)
  | _ -> None

(* --- observability ------------------------------------------------------ *)

(* Global flags shared by every subcommand: -v/-vv install a Logs
   reporter (so library-level logging is visible), --trace streams spans
   to the console, --metrics FILE dumps the full registry as JSON on
   exit, --jobs N sizes the shared domain pool that the measurement
   sweep and bootstrap resampling fan out over.  The term yields the
   setup unrun, and each command runs it first: cmdliner converts
   arguments left to right, so a setup run by the term would act (and
   register its at-exit writes) before a later argument is refused. *)

let obs_setup trace metrics verbosity jobs perfetto () =
  Webdep_obs.Reporter.setup
    ~level:(Webdep_obs.Reporter.level_of_verbosity (List.length verbosity))
    ();
  (match jobs with
  | Some j when j >= 1 -> Webdep_par.set_jobs j
  | Some j ->
      Printf.eprintf "webdep: --jobs must be >= 1 (got %d)\n" j;
      exit 124
  | None -> ());
  (* Both files are written once, at exit (also when a subcommand exits
     early); one that cannot be written costs one line on stderr. *)
  let sinks =
    (if trace then [ Webdep_obs.Sink.console () ] else [])
    @
    match perfetto with
    | None -> []
    | Some path ->
        let recorder = Webdep_prof.Profile.collector () in
        at_exit (fun () ->
            try Webdep_prof.Trace.write path (Webdep_prof.Profile.events recorder)
            with Sys_error msg -> Printf.eprintf "webdep: cannot write trace: %s\n" msg);
        [ Webdep_prof.Profile.collector_sink recorder ]
  in
  (match sinks with
  | [] -> ()
  | s :: rest -> Webdep_obs.Sink.set (List.fold_left Webdep_obs.Sink.tee s rest));
  match metrics with
  | None -> ()
  | Some path ->
      at_exit (fun () ->
          try Webdep_obs.Registry.write_file path
          with Sys_error msg ->
            Printf.eprintf "webdep: cannot write metrics: %s\n" msg)

let obs_term =
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print every pipeline span (with timing) to the console.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"On exit, write a JSON snapshot of all counters, histograms and \
                 span timings to $(docv).")
  in
  let verbose =
    Arg.(value & flag_all & info [ "v"; "verbose" ]
           ~doc:"Increase log verbosity ($(b,-v) info, $(b,-vv) debug).")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the measurement sweep and bootstrap \
                 resampling (default: the machine's recommended domain \
                 count; $(b,--jobs 1) forces the sequential path).  \
                 Results are identical for every $(docv).")
  in
  let perfetto =
    Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE"
           ~doc:"Export every span as a Chrome trace-event file loadable in \
                 $(b,https://ui.perfetto.dev): one timeline lane per worker \
                 domain, nested spans as stacked slices.")
  in
  Term.(const obs_setup $ trace $ metrics $ verbose $ jobs $ perfetto)

(* --- fault injection ---------------------------------------------------- *)

(* Robustness flags: a fault plan (deterministic in --fault-seed, off at
   --fault-rate 0), a retry budget, the per-country coverage gate, and
   an optional checkpoint file for interrupted sweeps. *)

let faults_setup rate fault_seed max_retries coverage_threshold checkpoint =
  if rate < 0.0 || rate > 1.0 then begin
    Printf.eprintf "webdep: --fault-rate must be within [0, 1] (got %g)\n" rate;
    exit 124
  end;
  if not (coverage_threshold >= 0.0 && coverage_threshold <= 1.0) then begin
    Printf.eprintf "webdep: --coverage-threshold must be within [0, 1] (got %g)\n"
      coverage_threshold;
    exit 124
  end;
  let faults =
    if rate = 0.0 then None
    else
      Some
        {
          Measure.plan = Webdep_faults.Fault_plan.make ~rate ~seed:fault_seed ();
          retry = Webdep_faults.Retry.of_max_retries max_retries;
          coverage_threshold;
        }
  in
  (faults, checkpoint)

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Append each completed (epoch, country) shard to $(docv) and \
               resume past it on restart.  Sweeps of both epochs share one \
               file; a checkpoint written under other world or sweep \
               parameters, or by an earlier schema version, is discarded.  \
               A file that is not a checkpoint (an epoch log, say) is \
               refused and left untouched, and one that cannot be created \
               is refused too: one line on stderr, exit 1.")

let checkpoint_exits =
  Cmd.Exit.info 1
    ~doc:"the $(b,--checkpoint) file is not a webdep checkpoint or cannot be written."
  :: Cmd.Exit.defaults

let faults_term =
  let rate =
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P"
           ~doc:"Probability a simulated server/query key misbehaves \
                 (DNS timeouts, SERVFAIL, REFUSED, truncated or failed TLS \
                 handshakes).  0 disables fault injection entirely; the output is \
                 then identical to a run without these flags.")
  in
  let fault_seed =
    Arg.(value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed of the deterministic fault plan (independent of the \
                 world seed).")
  in
  let max_retries =
    Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N"
           ~doc:"Retries after the first attempt for transient DNS/TLS \
                 failures (deterministic exponential backoff, simulated \
                 clock).")
  in
  let coverage_threshold =
    Arg.(value & opt float 0.9 & info [ "coverage-threshold" ] ~docv:"R"
           ~doc:"Minimum per-country fraction of measured (non-failed) \
                 sites; countries below it are reported as \
                 insufficient_coverage and withheld from the output.")
  in
  Term.(const faults_setup $ rate $ fault_seed $ max_retries $ coverage_threshold
        $ checkpoint_arg)

let measure ~seed ~c ?countries ?(faults = (None, None)) () =
  let world = World.create ~c ~seed () in
  let fault_opts, checkpoint = faults in
  let sweep =
    checkpointed checkpoint (fun () ->
        Measure.measure_sweep ?countries ?faults:fault_opts ?checkpoint world)
  in
  List.iter
    (fun (c : Measure.country_coverage) ->
      if List.mem c.Measure.cc sweep.Measure.insufficient then
        Printf.eprintf "insufficient_coverage %s: %.1f%% measured\n"
          c.Measure.cc (100.0 *. c.Measure.ratio))
    sweep.Measure.coverage;
  (world, sweep.Measure.dataset)

(* --- scores ------------------------------------------------------------- *)

let run_scores obs layer seed c countries top faults =
  obs ();
  let _, ds = measure ~seed ~c ?countries ~faults () in
  Printf.printf "%-5s %-4s %10s %10s %8s\n" "rank" "cc" "S" "paper" "diff";
  List.iteri
    (fun i (cc, s) ->
      if i < top then
        let paper = Scores.score_exn layer cc in
        Printf.printf "%-5d %-4s %10.4f %10.4f %+8.4f\n" (i + 1) cc s paper (s -. paper))
    (Webdep.Metrics.all_scores ds layer)

let scores_cmd =
  let doc = "Per-country centralization scores for a layer (Tables 5-8)." in
  Cmd.v (Cmd.info "scores" ~doc ~exits:checkpoint_exits)
    Term.(const run_scores $ obs_term $ layer_arg $ seed_arg $ c_arg $ countries_arg
          $ top_arg $ faults_term)

(* --- report -------------------------------------------------------------- *)

let cc_pos =
  Arg.(required & pos 0 (some cc_conv) None & info [] ~docv:"CC" ~doc:"Country code.")

let run_report obs cc seed c =
  obs ();
  let _, ds = measure ~seed ~c ~countries:[ cc ] () in
  List.iter
    (fun layer ->
      Printf.printf "--- %s ---\n" (Scores.layer_name layer);
      Printf.printf "S = %.4f (paper %.4f), insularity = %.1f%%, providers = %d\n"
        (Webdep.Metrics.centralization ds layer cc)
        (Scores.score_exn layer cc)
        (100.0 *. Webdep.Regionalization.insularity ds layer cc)
        (Webdep.Metrics.provider_count ds layer cc);
      List.iteri
        (fun i ((e : D.entity), k) ->
          if i < 5 then
            Printf.printf "  %d. %-28s [%s] %5.1f%%\n" (i + 1) e.D.name e.D.country
              (100.0 *. float_of_int k /. float_of_int c))
        (D.counts_by_entity ds layer cc);
      print_newline ())
    Scores.all_layers

let report_cmd =
  let doc = "Full four-layer dependence report for one country." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run_report $ obs_term $ cc_pos $ seed_arg $ c_arg)

(* --- insularity ------------------------------------------------------------ *)

let run_insularity obs layer seed c countries top =
  obs ();
  let _, ds = measure ~seed ~c ?countries () in
  Printf.printf "%-5s %-4s %12s\n" "rank" "cc" "insularity";
  List.iteri
    (fun i (cc, v) ->
      if i < top then Printf.printf "%-5d %-4s %11.1f%%\n" (i + 1) cc (100.0 *. v))
    (Webdep.Regionalization.all_insularity ds layer)

let insularity_cmd =
  let doc = "Per-country insularity for a layer (Figures 13, 20-22)." in
  Cmd.v (Cmd.info "insularity" ~doc)
    Term.(const run_insularity $ obs_term $ layer_arg $ seed_arg $ c_arg $ countries_arg $ top_arg)

(* --- classify ---------------------------------------------------------------- *)

let run_classify obs layer seed c =
  obs ();
  let _, ds = measure ~seed ~c () in
  let cl = Webdep.Classify.classify ds layer in
  Printf.printf "raw affinity-propagation clusters: %d\n" cl.Webdep.Classify.raw_clusters;
  Printf.printf "%-10s %8s\n" "class" "count";
  List.iter
    (fun (k, n) -> Printf.printf "%-10s %8d\n" (Webdep.Classify.klass_name k) n)
    cl.Webdep.Classify.table

let classify_cmd =
  let doc = "Provider classes by usage and endemicity (Tables 1-3)." in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run_classify $ obs_term $ layer_arg $ seed_arg $ c_arg)

(* --- usage ---------------------------------------------------------------------- *)

let provider_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROVIDER" ~doc:"Provider name.")

let run_usage obs provider layer seed c =
  obs ();
  let _, ds = measure ~seed ~c () in
  match Webdep.Regionalization.usage_curve ds layer ~name:provider with
  | exception Not_found ->
      Printf.eprintf "provider %S not present in the %s layer\n" provider
        (Scores.layer_name layer);
      exit 1
  | u ->
      Printf.printf "provider: %s [%s]\n" provider
        u.Webdep.Regionalization.entity.D.country;
      Printf.printf "usage U = %.1f, endemicity E = %.1f, ratio E_R = %.3f\n"
        u.Webdep.Regionalization.usage u.Webdep.Regionalization.endemicity
        u.Webdep.Regionalization.endemicity_ratio;
      Printf.printf "usage curve (top 10 countries): ";
      Array.iteri
        (fun i v -> if i < 10 then Printf.printf "%.1f%% " v)
        u.Webdep.Regionalization.curve;
      print_newline ()

let usage_cmd =
  let doc = "Usage and endemicity of one provider (Figure 4)." in
  Cmd.v (Cmd.info "usage" ~doc)
    Term.(const run_usage $ obs_term $ provider_pos $ layer_arg $ seed_arg $ c_arg)

(* --- longitudinal ------------------------------------------------------------------ *)

let run_longitudinal obs seed c countries top =
  obs ();
  let world = World.create ~c ~seed () in
  let ds23 = Measure.measure_all ?countries world in
  let ds25 = Measure.measure_all ~epoch:World.May_2025 ?countries world in
  let cmp =
    Webdep.Longitudinal.compare ~focus:"Cloudflare" ~old_ds:ds23 ~new_ds:ds25 Hosting
  in
  Printf.printf "rho = %.3f, mean jaccard = %.3f, Cloudflare %+.1f pts\n"
    cmp.Webdep.Longitudinal.rho.Webdep_stats.Correlation.rho
    cmp.Webdep.Longitudinal.mean_jaccard
    (100.0 *. Option.value ~default:0.0 cmp.Webdep.Longitudinal.focus_mean_delta);
  Printf.printf "%-4s %9s %9s %8s\n" "cc" "2023" "2025" "delta";
  List.iteri
    (fun i d ->
      if i < top then
        Printf.printf "%-4s %9.4f %9.4f %+8.4f\n" d.Webdep.Longitudinal.country
          d.Webdep.Longitudinal.old_score d.Webdep.Longitudinal.new_score
          d.Webdep.Longitudinal.delta)
    cmp.Webdep.Longitudinal.deltas

let longitudinal_cmd =
  let doc = "Compare May-2023 and May-2025 measurements (§5.4)." in
  Cmd.v (Cmd.info "longitudinal" ~doc)
    Term.(const run_longitudinal $ obs_term $ seed_arg $ c_arg $ countries_arg $ top_arg)

(* --- validate ----------------------------------------------------------------------- *)

let run_validate obs seed c countries =
  obs ();
  let countries =
    match countries with
    | Some ccs -> ccs
    | None -> List.map (fun x -> x.Webdep_geo.Country.code) Webdep_geo.Country.all
  in
  let world = World.create ~c ~seed () in
  let ds = Measure.measure_all ~countries world in
  let home = List.map (fun cc -> (cc, Webdep.Metrics.centralization ds Hosting cc)) countries in
  let probes = Measure.measure_with_probes ~per_country_probes:5 ~seed world countries in
  let v = Webdep.Validate.correlate ~home ~probes in
  Printf.printf "rho(home, probes) = %.4f over %d countries, max gap %.4f\n"
    v.Webdep.Validate.rho.Webdep_stats.Correlation.rho
    (List.length v.Webdep.Validate.pairs)
    v.Webdep.Validate.max_gap

let validate_cmd =
  let doc = "Vantage-point validation sweep (§3.4)." in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run_validate $ obs_term $ seed_arg $ c_arg $ countries_arg)

(* --- paper ------------------------------------------------------------------------- *)

let run_paper obs layer top =
  obs ();
  Printf.printf "%-5s %-4s %10s\n" "rank" "cc" "S";
  List.iteri
    (fun i (cc, s) -> if i < top then Printf.printf "%-5d %-4s %10.4f\n" (i + 1) cc s)
    (Scores.table layer)

let paper_cmd =
  let doc = "Print the embedded Appendix-F reference table for a layer." in
  Cmd.v (Cmd.info "paper" ~doc) Term.(const run_paper $ obs_term $ layer_arg $ top_arg)

(* --- export -------------------------------------------------------------------------- *)

let out_dir_arg =
  Arg.(value & opt string "webdep-data" & info [ "o"; "out" ] ~docv:"DIR"
         ~doc:"Output directory for the CSV files.")

let run_export obs layer seed c out_dir =
  obs ();
  let _, ds = measure ~seed ~c () in
  writing out_dir (fun () ->
      try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let name = Scores.layer_name layer in
  let put file doc =
    let path = Filename.concat out_dir file in
    writing path (fun () -> Webdep.Export.write_file path doc);
    Printf.printf "wrote %s\n" path
  in
  put (Printf.sprintf "scores_%s.csv" name) (Webdep.Export.scores_csv ds layer);
  put (Printf.sprintf "insularity_%s.csv" name) (Webdep.Export.insularity_csv ds layer);
  put (Printf.sprintf "usage_%s.csv" name) (Webdep.Export.usage_csv ds layer)

let export_cmd =
  let doc = "Export scores, insularity and provider usage as CSV (data release)." in
  let exits =
    Cmd.Exit.info 1 ~doc:"the output directory or a CSV file in it cannot be written."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "export" ~doc ~exits)
    Term.(const run_export $ obs_term $ layer_arg $ seed_arg $ c_arg $ out_dir_arg)

(* --- language -------------------------------------------------------------------------- *)

let run_language obs cc seed c =
  obs ();
  let _, ds = measure ~seed ~c ~countries:[ cc ] () in
  Printf.printf "content languages of %s's top sites:\n" cc;
  List.iteri
    (fun i (lang, share) ->
      if i < 8 then begin
        Printf.printf "  %-4s %5.1f%%   hosted in: " lang (100.0 *. share);
        List.iteri
          (fun j (home, s) ->
            if j < 3 then Printf.printf "%s %.0f%% " home (100.0 *. s))
          (Webdep.Language_analysis.language_home_crosstab ds cc ~language:lang);
        print_newline ()
      end)
    (Webdep.Language_analysis.language_breakdown ds cc)

let language_cmd =
  let doc = "Content-language breakdown and cross-border hosting (§5.3.3)." in
  Cmd.v (Cmd.info "language" ~doc) Term.(const run_language $ obs_term $ cc_pos $ seed_arg $ c_arg)

(* --- redundancy -------------------------------------------------------------------------- *)

let run_redundancy obs cc seed c =
  obs ();
  let world = World.create ~c ~seed () in
  let input =
    Measure.discover_redundancy ~vantages:[ "US"; cc; "DE"; "JP"; "BR" ] world cc
  in
  let r = Webdep.Redundancy.analyze input in
  Printf.printf "%s: %d sites, %.1f%% single-homed, SPOF score %.4f\n" cc
    r.Webdep.Redundancy.total_sites
    (100.0 *. Webdep.Redundancy.single_homed_fraction r)
    r.Webdep.Redundancy.spof_score;
  print_endline "most critical providers (sites that require them):";
  List.iteri
    (fun i (name, k) -> if i < 8 then Printf.printf "  %-28s %d\n" name k)
    r.Webdep.Redundancy.critical_counts

let redundancy_cmd =
  let doc = "Single-provider dependence via multi-vantage measurement (§3.2 ext)." in
  Cmd.v (Cmd.info "redundancy" ~doc) Term.(const run_redundancy $ obs_term $ cc_pos $ seed_arg $ c_arg)

(* --- tld ---------------------------------------------------------------------------------- *)

let run_tld obs cc seed c =
  obs ();
  let _, ds = measure ~seed ~c ~countries:[ cc ] () in
  Printf.printf "TLD usage of %s (S = %.4f):\n" cc (Webdep.Metrics.centralization ds Tld cc);
  List.iter
    (fun (cat, share) ->
      Printf.printf "  %-16s %5.1f%%\n" (Webdep.Tld_analysis.category_name cat)
        (100.0 *. share))
    (Webdep.Tld_analysis.breakdown ds cc);
  (match Webdep.Tld_analysis.external_cctlds ds cc with
  | [] -> ()
  | ext ->
      print_endline "external ccTLDs:";
      List.iteri
        (fun i (tld, share) ->
          if i < 6 then Printf.printf "  %-6s %5.1f%%\n" tld (100.0 *. share))
        ext);
  match Webdep.Tld_analysis.uses_external_over_local ds cc with
  | Some tld -> Printf.printf "note: %s outranks the local ccTLD\n" tld
  | None -> ()

let tld_cmd =
  let doc = "TLD-layer breakdown for one country (Appendix B)." in
  Cmd.v (Cmd.info "tld" ~doc) Term.(const run_tld $ obs_term $ cc_pos $ seed_arg $ c_arg)

(* --- report-md -------------------------------------------------------------------------- *)

let md_out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Write the Markdown report to FILE instead of stdout.")

let run_report_md obs seed c countries out =
  obs ();
  let _, ds = measure ~seed ~c ?countries () in
  let doc = Webdep.Report_md.generate ds in
  match out with
  | Some path ->
      writing path (fun () -> Webdep.Export.write_file path doc);
      Printf.printf "wrote %s\n" path
  | None -> print_string doc

let report_md_cmd =
  let doc = "Generate a paper-style Markdown report of the measured dataset." in
  let exits =
    Cmd.Exit.info 1 ~doc:"the $(b,--out) file cannot be written." :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "report-md" ~doc ~exits)
    Term.(const run_report_md $ obs_term $ seed_arg $ c_arg $ countries_arg $ md_out_arg)

(* --- profile ---------------------------------------------------------------------------- *)

(* Run a measurement sweep with an in-memory span collector installed
   (teed with whatever sink the global flags chose, so --perfetto and
   --trace still work) and print the top-N hotspot table; or skip the
   run entirely and aggregate a trace file saved earlier. *)

let run_profile obs from_trace seed c countries top faults =
  obs ();
  let rows =
    match from_trace with
    | Some path -> (
        match Webdep_prof.Trace.load path with
        | events -> Webdep_prof.Profile.aggregate events
        | exception (Webdep_prof.Trace.Bad_trace msg | Sys_error msg) ->
            Printf.eprintf "webdep profile: trace %s unusable: %s\n" path msg;
            exit 1)
    | None ->
        let collector = Webdep_prof.Profile.collector () in
        let sink =
          Webdep_obs.Sink.tee
            (Webdep_obs.Sink.current ())
            (Webdep_prof.Profile.collector_sink collector)
        in
        Webdep_obs.Sink.with_sink sink (fun () ->
            ignore (measure ~seed ~c ?countries ~faults ()));
        Webdep_prof.Profile.aggregate (Webdep_prof.Profile.events collector)
  in
  if rows = [] then print_endline "no spans recorded"
  else print_string (Webdep_prof.Profile.render ~top rows)

let profile_cmd =
  let doc =
    "Hotspot profile of a measurement sweep: per-span self/cumulative time and \
     allocation."
  in
  let from_trace =
    Arg.(value & opt (some string) None & info [ "from-trace" ] ~docv:"FILE"
           ~doc:"Aggregate a Chrome trace file saved earlier with \
                 $(b,--perfetto) instead of running a sweep.")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"the $(b,--from-trace) file is missing or not a trace document \
                          (empty, not JSON, truncated, a field of the wrong type), or \
                          the $(b,--checkpoint) file is not a webdep checkpoint or \
                          cannot be written."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "profile" ~doc ~exits)
    Term.(const run_profile $ obs_term $ from_trace $ seed_arg $ c_arg $ countries_arg
          $ top_arg $ faults_term)

(* --- scale --------------------------------------------------------------------------- *)

(* One paper-scale sweep in a process that has run nothing else, so
   Gc.top_heap_words genuinely is this sweep's peak heap — that is what
   makes --budget-words a meaningful gate (the bench's scale phase can
   only report a cumulative upper bound).  Exit 4 when over budget. *)

let run_scale obs seed c countries budget_words =
  obs ();
  let r = Webdep_pipeline.Scale.run ~seed ?countries ~c () in
  Printf.printf
    "c=%d: %d countries, %d sites, %.2fs, %.0f minor words, top_heap %d words, \
     mean hosting S %.4f\n"
    r.Webdep_pipeline.Scale.c r.Webdep_pipeline.Scale.countries
    r.Webdep_pipeline.Scale.sites r.Webdep_pipeline.Scale.seconds
    r.Webdep_pipeline.Scale.minor_words r.Webdep_pipeline.Scale.top_heap_words
    r.Webdep_pipeline.Scale.mean_hosting_s;
  match budget_words with
  | Some budget when r.Webdep_pipeline.Scale.top_heap_words > budget ->
      Printf.eprintf "webdep scale: top_heap_words %d exceeds budget %d\n"
        r.Webdep_pipeline.Scale.top_heap_words budget;
      exit 4
  | Some budget ->
      Printf.printf "within budget: %d <= %d words\n"
        r.Webdep_pipeline.Scale.top_heap_words budget
  | None -> ()

let scale_cmd =
  let doc =
    "Run one full measurement sweep and report wall seconds, minor-heap \
     allocation and the process peak heap (Gc.top_heap_words)."
  in
  let budget =
    Arg.(value & opt (some int) None & info [ "budget-words" ] ~docv:"N"
           ~doc:"Fail (exit 4) if the process's peak major heap exceeds \
                 $(docv) words.  Meaningful because this subcommand runs \
                 nothing but the sweep.")
  in
  let exits =
    Cmd.Exit.info 4
      ~doc:"the process peak heap exceeded $(b,--budget-words) (the bench's \
            $(b,--compare) gate uses exit 3 for a timing/alloc regression and \
            125 for a missing or unreadable baseline)."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "scale" ~doc ~exits)
    Term.(const run_scale $ obs_term $ seed_arg $ c_arg $ countries_arg $ budget)

(* --- serve / query ---------------------------------------------------------------------- *)

(* The long-running dependence-query daemon and its one-shot twin.  Both
   build the same state (both epochs measured, plus any churn-log
   epochs; every score row and ranking built up front) and answer
   through [Webdep_serve.State.answer], so a daemon answer is
   byte-identical to the one-shot output for every query kind at any
   --jobs. *)

module Serve = Webdep_serve

(* A listen or connect address, checked when arguments parse (a bad
   "tcp:" port is a command-line error) and passed on as given. *)
let addr_conv =
  let parse s =
    match Serve.Addr.of_spec s with
    | _ -> Ok s
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

let epoch_arg =
  Arg.(value & opt string "2023" & info [ "epoch" ] ~docv:"EPOCH"
         ~doc:"Epoch a score/topk/ranking query refers to: 2023, 2025, or a \
               churn-log epoch name the daemon has loaded (list them with the \
               $(b,epochs) query).")

(* Replay a churn transaction log into scores-only epochs ("e<k>"), one
   per committed epoch: a few floats per (layer, country) — cheap enough
   to keep every epoch addressable — answering score/ranking/delta while
   tally-backed queries keep needing a measured epoch.  Scored epochs
   ride alongside the measured ones.  A log whose records do not apply
   is refused like one with a foreign header.  Messages name [command],
   the subcommand that loads the log. *)
let scored_epochs_of_log ~command path =
  let unusable msg =
    Printf.eprintf "webdep %s: epoch log %s unusable (%s), ignoring\n%!" command path msg;
    []
  in
  match Webdep_epoch.Log.load ~path with
  | Webdep_epoch.Log.Absent ->
      Printf.eprintf "webdep %s: epoch log %s absent, ignoring\n%!" command path;
      []
  | Webdep_epoch.Log.Mismatch msg -> unusable msg
  | Webdep_epoch.Log.Loaded log -> (
      match Serve.State.scored_of_log log with
      | exception Invalid_argument msg -> unusable msg
      | scored ->
          Printf.eprintf "webdep %s: epoch log %s: %d scored epochs (e%d..e%d)\n%!"
            command path (List.length scored)
            log.Webdep_epoch.Log.base_epoch log.Webdep_epoch.Log.head;
          scored)

(* The daemon's state: both measured epochs, swept the way [scores]
   sweeps one.  With [?checkpoint], each epoch resumes the shards the
   file holds and appends the rest, so the file is complete before the
   daemon listens and a restart re-measures only what a crash lost.
   [command] names the subcommand in messages. *)
let serve_state ~command ?checkpoint ?epoch_log ~seed ~c ?countries () =
  let world = World.create ~c ~seed () in
  let sweeps =
    List.map
      (fun epoch ->
        ( World.epoch_name epoch,
          checkpointed checkpoint (fun () ->
              Measure.measure_sweep ~epoch ?countries ?checkpoint world) ))
      [ World.May_2023; World.May_2025 ]
  in
  Option.iter
    (fun path ->
      let coverage = List.concat_map (fun (_, sw) -> sw.Measure.coverage) sweeps in
      Printf.eprintf "webdep %s: checkpoint %s: resumed %d of %d shards\n%!" command path
        (List.length (List.filter (fun (cv : Measure.country_coverage) -> cv.resumed) coverage))
        (List.length coverage))
    checkpoint;
  let scored =
    match epoch_log with None -> [] | Some path -> scored_epochs_of_log ~command path
  in
  Serve.State.make ~scored (List.map (fun (name, sw) -> (name, sw.Measure.dataset)) sweeps)

let epoch_log_arg =
  Arg.(value & opt (some string) None & info [ "epoch-log" ] ~docv:"FILE"
         ~doc:"Also load the churn transaction log $(docv) (see $(b,webdep \
               epochs)) and serve each committed epoch as a scores-only \
               epoch named $(b,eK): score, ranking and delta answer from \
               the replayed tables; list them with the $(b,epochs) query.")

let query_pos =
  Arg.(value & pos_all string [] & info [] ~docv:"QUERY"
         ~doc:"Query words: $(b,ping), $(b,score LAYER CC), \
               $(b,topk LAYER CC K), $(b,ranking LAYER K), \
               $(b,delta LAYER CC [OLD NEW]), $(b,epochs) or $(b,shutdown).")

(* Render the response; an [Error] answer (unknown epoch, scores-only
   epoch, missing country) is an operator-visible failure, not a result,
   so it goes to stderr and exits 1. *)
let finish_query resp =
  match resp with
  | Serve.Protocol.Error msg ->
      Printf.eprintf "webdep query: %s\n" msg;
      exit 1
  | _ -> print_string (Serve.Protocol.render resp)

let run_query obs epoch connect timeout max_retries seed c countries epoch_log
    words =
  obs ();
  match Serve.Protocol.parse_query ~epoch words with
  | Error msg ->
      Printf.eprintf "webdep query: %s\n" msg;
      exit 1
  | Ok req -> (
      match connect with
      | Some spec -> (
          match Serve.Client.call ~max_retries ~timeout_s:timeout spec req with
          | Ok resp -> finish_query resp
          | Error msg ->
              Printf.eprintf "webdep query: daemon at %s unavailable: %s\n"
                spec msg;
              exit 5)
      | None ->
          let st = serve_state ~command:"query" ?epoch_log ~seed ~c ?countries () in
          finish_query (Serve.State.answer st req))

let connect_arg =
  Arg.(value & opt (some addr_conv) None & info [ "connect" ] ~docv:"ADDR"
         ~doc:"Send the query to a running $(b,webdep serve) daemon at \
               $(docv) (Unix-socket path or $(b,tcp:PORT)) instead of \
               measuring locally.  Answers are byte-identical either way.")

let query_timeout_arg =
  Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Total deadline for a $(b,--connect) query, retries and \
               backoff included.")

let query_retries_arg =
  Arg.(value & opt int 4 & info [ "max-retries" ] ~docv:"N"
         ~doc:"Retries after the first attempt when the daemon refuses \
               the connection, sheds the request ($(i,overloaded)), is \
               draining, or resets mid-reply — e.g. while a supervised \
               daemon restarts.  Backoff is exponential with \
               deterministic jitter.")

let query_cmd =
  let doc = "Answer one dependence query, locally or against a daemon." in
  let exits =
    Cmd.Exit.info 5
      ~doc:"the retry budget ($(b,--timeout)/$(b,--max-retries)) was \
            exhausted without a daemon reply."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "query" ~doc ~exits)
    Term.(const run_query $ obs_term $ epoch_arg $ connect_arg $ query_timeout_arg
          $ query_retries_arg $ seed_arg $ c_arg $ countries_arg $ epoch_log_arg
          $ query_pos)

let run_serve obs listen seed c countries max_queue checkpoint epoch_log supervise
    restart_limit restart_window =
  obs ();
  if max_queue < 1 then begin
    Printf.eprintf "webdep serve: --max-queue must be >= 1\n";
    exit 124
  end;
  let serve () =
    (* Deterministic crash switch for exercising the supervisor's
       crash-loop detector from the outside (CI). *)
    (match Sys.getenv_opt "WEBDEP_SERVE_CRASH_ON_START" with
    | Some v when v <> "" && v <> "0" ->
        prerr_endline "webdep serve: WEBDEP_SERVE_CRASH_ON_START set, aborting";
        exit 70
    | _ -> ());
    let st = serve_state ~command:"serve" ?checkpoint ?epoch_log ~seed ~c ?countries () in
    (* The pool served the sweeps and the replay; the loop never uses
       it, and an idle lane would still join every minor collection. *)
    Webdep_par.shutdown ();
    let cfg = Serve.Server.config ~max_queue listen in
    let listening = ref false in
    match
      Serve.Server.run ~handle_signals:true
        ~on_ready:(fun () ->
          listening := true;
          Printf.printf
            "webdep serve: listening on %s (seed %d, c %d, epochs 2023-05 2025-05)\n"
            listen seed c;
          flush stdout)
        cfg st
    with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) when not !listening ->
        Printf.eprintf "webdep serve: cannot listen on %s: %s\n%!" listen
          (Unix.error_message e);
        exit 1
  in
  (* A refusal ends a supervised child as it ends the unsupervised
     daemon: one line and its status (1, or 124 for a world too small to
     calibrate), which the supervisor does not restart. *)
  let serve_child () =
    try serve () with e -> ( match refused e with Some code -> exit code | None -> raise e)
  in
  if supervise then begin
    (* Fork before any state (and hence any domain) exists: OCaml 5
       cannot fork a process with running domains, so the measurement
       sweep and the Webdep_par pool belong to the child. *)
    let policy =
      { Serve.Supervisor.default_policy with
        restart_limit; window_s = restart_window }
    in
    exit (Serve.Supervisor.supervise ~policy serve_child)
  end
  else serve_child ()

let serve_cmd =
  let doc =
    "Long-running dependence-query daemon: batched answers over a \
     length-prefixed binary protocol with a bounded response cache and load \
     shedding."
  in
  let man =
    [ `S Manpage.s_description;
      `P "Measures both epochs (resuming from $(b,--checkpoint)) \
          and builds an answer table per epoch and layer before it listens: \
          every country's score row and the full ranking, plus, for \
          both measured epochs, every country's provider counts for \
          top-k queries.  \
          It then answers queries on a Unix or loopback-TCP socket.  \
          Requests are drained and answered in batches of up to 256 on \
          one loop; $(b,--jobs) sizes only the start-up sweeps and the \
          churn-log replay, and the pool is released before listening.  Past \
          $(b,--max-queue) pending requests the daemon replies \
          $(i,overloaded) immediately instead of queueing without bound.  \
          Replies are cached by request in two generations of 131 072 \
          entries each, so the cache stays bounded however many distinct \
          requests arrive.  A request whose reply cannot be framed (an \
          over-long epoch name, say) gets a short error.  A connection \
          speaks length-prefixed binary frames from its first byte; one \
          whose length prefix is corrupt (past 16 MiB, as the first four \
          bytes of a line of text are) gets a short error and is closed.";
      `P "Send the $(b,shutdown) query (e.g. $(b,webdep query --connect \
          ADDR shutdown)) for a clean shutdown, or SIGTERM/SIGINT for a \
          graceful drain: in-flight batches are answered, late requests \
          get a $(i,draining) reply.  The daemon writes nothing at exit.";
      `P "With $(b,--checkpoint FILE), both start-up sweeps use the sweep \
          checkpoint that $(b,webdep scores --checkpoint) writes: each \
          epoch resumes the (epoch, country) shards the file holds and \
          appends and fsyncs the ones it measures, so the file is \
          complete before the daemon listens.  A restart after a crash, \
          even $(b,kill -9), resumes every shard; a torn file re-measures \
          only the shards it lost, and a file from other world parameters \
          is discarded; a file that is not a checkpoint is refused (exit \
          1).  With $(b,--supervise), a parent process restarts \
          the daemon after a crash with exponential backoff and gives up \
          (exit 6) when it crash-loops; a child that refuses its input \
          (exit 1, or 124 for a $(b,-c) too small to calibrate) is not \
          restarted, and the parent exits with the child's status." ]
  in
  let listen =
    Arg.(required & opt (some addr_conv) None & info [ "socket" ] ~docv:"ADDR"
           ~doc:"Listen address: a Unix-socket path or $(b,tcp:PORT) \
                 (loopback only).")
  in
  let max_queue =
    Arg.(value & opt int 1024 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission-queue depth; further requests get an immediate \
                 $(i,overloaded) reply (load shedding).")
  in
  let supervise =
    Arg.(value & flag & info [ "supervise" ]
           ~doc:"Run the daemon in a supervised child process: restart it \
                 on abnormal exit with exponential backoff, give up with \
                 exit 6 after $(b,--restart-limit) abnormal exits within \
                 $(b,--restart-window) seconds.")
  in
  let restart_limit =
    Arg.(value & opt int 5 & info [ "restart-limit" ] ~docv:"N"
           ~doc:"Abnormal exits tolerated inside the crash-loop window \
                 before the supervisor gives up.")
  in
  let restart_window =
    Arg.(value & opt float 30.0 & info [ "restart-window" ] ~docv:"SECONDS"
           ~doc:"Sliding window for crash-loop detection.")
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:"the $(b,--checkpoint) file is not a webdep checkpoint or cannot be \
            written, or the daemon cannot listen on $(b,--socket) (also under \
            $(b,--supervise): such a child is not restarted)."
    :: Cmd.Exit.info 6
         ~doc:"the $(b,--supervise) parent detected a crash loop and stopped \
               restarting the daemon."
    :: Cmd.Exit.info Cmd.Exit.cli_error
         ~doc:"on command line parsing errors, or when $(b,-c) is too small to \
               calibrate a country's mix (also under $(b,--supervise): such a \
               child is not restarted)."
    :: List.filter (fun e -> Cmd.Exit.info_code e <> Cmd.Exit.cli_error) Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "serve" ~doc ~man ~exits)
    Term.(const run_serve $ obs_term $ listen $ seed_arg $ c_arg $ countries_arg
          $ max_queue $ checkpoint_arg $ epoch_log_arg $ supervise $ restart_limit
          $ restart_window)

(* --- epochs --------------------------------------------------------------------------- *)

(* Multi-epoch churn streams: build a synthetic many-epoch trajectory
   from the two measured snapshots (2023 baseline, 2025 donor pool),
   persist it as an append-only churn transaction log, replay it in
   O(churn) per epoch and print per-country S trends.  --verify checks
   the replayed head bit-for-bit against a cold recomputation of the
   materialized dataset; --compact collapses old epochs into a new
   baseline without changing any replayed score. *)

module Epoch = Webdep_epoch

let file_size path = (Unix.stat path).Unix.st_size

let run_epochs obs log_path n_epochs churn layer verify compact_keep rebuild
    seed c countries =
  obs ();
  if churn <= 0.0 || churn >= 1.0 then begin
    Printf.eprintf "webdep epochs: --churn must be within (0, 1) (got %g)\n" churn;
    exit 124
  end;
  if n_epochs < 0 then begin
    Printf.eprintf "webdep epochs: --epochs must be >= 0 (got %d)\n" n_epochs;
    exit 124
  end;
  (match compact_keep with
  | Some keep when keep < 0 ->
      Printf.eprintf "webdep epochs: --compact must be >= 0 (got %d)\n" keep;
      exit 124
  | _ -> ());
  if rebuild && Sys.file_exists log_path then
    writing log_path (fun () -> Sys.remove log_path);
  if not (Sys.file_exists log_path) then begin
    let world = World.create ~c ~seed () in
    let ds23 = Measure.measure_all ?countries world in
    let ds25 = Measure.measure_all ~epoch:World.May_2025 ?countries world in
    let base = List.map (D.country_exn ds23) (D.countries ds23) in
    let donors =
      List.map
        (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites))
        (D.countries ds25)
    in
    let events =
      Epoch.Synth.generate ~seed ~fraction:churn ~epochs:n_epochs ~base_epoch:0
        ~base ~donors
    in
    let meta =
      [ ("seed", Webdep_json.Int seed);
        ("c", Webdep_json.Int c);
        ("churn", Webdep_json.Float churn) ]
    in
    (* Epoch-at-a-time appends — the same O(churn) path a live feed
       would use, not one big rewrite — through the replay, so an epoch
       that does not apply is refused before it is written. *)
    writing log_path (fun () ->
        Epoch.Log.create ~path:log_path ~meta ~base_epoch:0 ~base ();
        let writer =
          Epoch.Replay.start
            { Epoch.Log.meta; base_epoch = 0; base; events = []; head = 0; dropped = false }
        in
        List.iter (Epoch.Replay.append writer ~path:log_path) events);
    Printf.printf "built %s: %d-country baseline + %d epochs at %.1f%% churn\n"
      log_path (List.length base) n_epochs (100.0 *. churn)
  end;
  let unusable msg =
    Printf.eprintf "webdep epochs: log %s unusable: %s\n" log_path msg;
    exit 1
  in
  match Epoch.Log.load ~path:log_path with
  | Epoch.Log.Absent ->
      Printf.eprintf "webdep epochs: log %s does not exist\n" log_path;
      exit 1
  | Epoch.Log.Mismatch msg -> unusable msg
  | Epoch.Log.Loaded log ->
      if log.Epoch.Log.dropped then
        Printf.eprintf
          "webdep epochs: %s: torn or uncommitted tail dropped, head is e%d\n"
          log_path log.Epoch.Log.head;
      let head, trend =
        try Epoch.Trend.of_log log layer with Invalid_argument msg -> unusable msg
      in
      Printf.printf "log %s: base e%d, head e%d, %d committed epochs, layer %s\n"
        log_path log.Epoch.Log.base_epoch log.Epoch.Log.head
        (List.length log.Epoch.Log.events)
        (Scores.layer_name layer);
      print_string (Epoch.Trend.render trend);
      if verify then begin
        (* Bit-identity of the replayed head against a cold sweep of the
           materialized dataset, all four layers. *)
        let ds = D.of_country_data (Epoch.Replay.materialize head) in
        let mismatches = ref 0 in
        List.iter
          (fun l ->
            List.iter
              (fun (cc, cold) ->
                let warm = Epoch.Replay.score head l cc in
                if Int64.bits_of_float warm <> Int64.bits_of_float cold then begin
                  incr mismatches;
                  Printf.eprintf "verify: %s %s replay %.17g <> cold %.17g\n"
                    (Scores.layer_name l) cc warm cold
                end)
              (Webdep.Metrics.all_scores ds l))
          [ D.Hosting; D.Dns; D.Ca; D.Tld ];
        if !mismatches > 0 then begin
          Printf.eprintf "webdep epochs: %d score mismatches at head e%d\n"
            !mismatches log.Epoch.Log.head;
          exit 2
        end;
        Printf.printf
          "verify: head e%d bit-identical to cold recompute (4 layers, %d countries)\n"
          log.Epoch.Log.head
          (List.length (Epoch.Replay.countries head))
      end;
      (match compact_keep with
      | None -> ()
      | Some keep ->
          let raw_bytes = file_size log_path in
          let compacted = Epoch.Replay.compact log ~keep_last:keep in
          writing log_path (fun () -> Epoch.Log.write ~path:log_path compacted);
          Printf.printf
            "compacted to base e%d + %d epochs: %d -> %d bytes\n"
            compacted.Epoch.Log.base_epoch
            (List.length compacted.Epoch.Log.events)
            raw_bytes (file_size log_path))

let epochs_cmd =
  let doc =
    "Build, replay, verify and compact a multi-epoch churn transaction log."
  in
  let man =
    [ `S Manpage.s_description;
      `P "Derives a many-epoch churn trajectory from the two measured \
          snapshots: the 2023 sweep seeds the baseline and each epoch \
          retires a deterministic fraction of every country's sites, \
          admitting replacements drawn from the 2025 sweep.  The log is \
          an append-only segment of CRC-framed records (the baseline, \
          per-epoch churn records, commit records) that recovers from \
          torn tails and half-appended epochs.";
      `P "Replay folds each epoch through the per-layer incremental \
          tallies, so advancing an epoch costs O(churn) rather than a \
          full re-sweep, and prints per-country score trends \
          (first/last S, least-squares slope, rank churn per \
          transition).  $(b,--verify) recomputes the head cold and \
          demands bit-identity; $(b,--compact) collapses history into \
          a new baseline, keeping replayed scores unchanged." ]
  in
  let log_arg =
    Arg.(required & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Churn log file; built from the measured snapshots when \
                 absent, replayed when present.")
  in
  let epochs_n =
    Arg.(value & opt int 12 & info [ "epochs" ] ~docv:"N"
           ~doc:"Epochs to synthesize when building a fresh log.")
  in
  let churn_arg =
    Arg.(value & opt float 0.02 & info [ "churn" ] ~docv:"F"
           ~doc:"Per-epoch churn fraction of each country's toplist when \
                 building a fresh log.")
  in
  let verify_flag =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Recompute the replayed head cold (materialize + full \
                 sweep) and fail (exit 2) unless every per-country score \
                 in all four layers is bit-identical.")
  in
  let compact_arg =
    Arg.(value & opt (some int) None & info [ "compact" ] ~docv:"K"
           ~doc:"After replaying, collapse all but the last $(docv) \
                 epochs into the baseline and rewrite the log \
                 atomically.")
  in
  let rebuild_flag =
    Arg.(value & flag & info [ "rebuild" ]
           ~doc:"Discard an existing log file and synthesize it afresh.")
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:"the $(b,--log) file is unusable (not an epoch log, records \
            that do not apply, or a path that cannot be read, such as a \
            directory) or cannot be written."
    :: Cmd.Exit.info 2
         ~doc:"$(b,--verify) found a replayed score that differs from the \
               cold recomputation."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "epochs" ~doc ~man ~exits)
    Term.(const run_epochs $ obs_term $ log_arg $ epochs_n $ churn_arg
          $ layer_arg $ verify_flag $ compact_arg $ rebuild_flag $ seed_arg
          $ c_arg $ countries_arg)

(* --- countries ------------------------------------------------------------------------ *)

let run_countries obs =
  obs ();
  List.iter
    (fun c ->
      Printf.printf "%-4s %-28s %-20s %s\n" c.Webdep_geo.Country.code c.Webdep_geo.Country.name
        (Webdep_geo.Region.subregion_name c.Webdep_geo.Country.subregion)
        (Webdep_geo.Region.continent_code (Webdep_geo.Country.continent c)))
    Webdep_geo.Country.all

let countries_cmd =
  let doc = "List the 150 dataset countries (Appendix E)." in
  Cmd.v (Cmd.info "countries" ~doc) Term.(const run_countries $ obs_term)

let () =
  let doc = "quantify centralization and regionalization of web infrastructure" in
  let info = Cmd.info "webdep" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ scores_cmd; report_cmd; insularity_cmd; classify_cmd; usage_cmd;
        longitudinal_cmd; validate_cmd; paper_cmd; countries_cmd; export_cmd;
        language_cmd; redundancy_cmd; tld_cmd; report_md_cmd; profile_cmd;
        scale_cmd; serve_cmd; query_cmd; epochs_cmd ]
  in
  (* A refusal gets its one line and status; any other escaping
     exception stays an internal error (125), as under cmdliner's own
     handler. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception e -> (
        let bt = Printexc.get_raw_backtrace () in
        match refused e with
        | Some code -> code
        | None ->
            Printf.eprintf "webdep: internal error, uncaught exception:\n%s\n"
              (Printexc.to_string e);
            Printexc.print_raw_backtrace stderr bt;
            125))
