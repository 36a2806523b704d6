(* Tests for webdep_epoch: the churn transaction log (round-trip,
   torn-tail and uncommitted-epoch recovery, appends refused after a
   torn tail or a later epoch), O(churn) replay against
   full per-epoch recomputation (bit-identical at every intermediate
   epoch, all four layers), all-or-nothing application of a rejected
   event, compaction round-trip bit-identity, and trend extraction. *)

module D = Webdep.Dataset
module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module Log = Webdep_epoch.Log
module Replay = Webdep_epoch.Replay
module Synth = Webdep_epoch.Synth
module Trend = Webdep_epoch.Trend

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]
let test_countries = [ "US"; "DE"; "JP"; "BR" ]

let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One small measured world: the 2023 sweep seeds baselines, the 2025
   sweep donates replacement sites. *)
let fixture =
  lazy
    (let world = World.create ~c:60 ~seed:2024 () in
     let ds23 = Measure.measure_all ~countries:test_countries world in
     let ds25 =
       Measure.measure_all ~epoch:World.May_2025 ~countries:test_countries world
     in
     let base = List.map (D.country_exn ds23) (D.countries ds23) in
     let donors =
       List.map
         (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites))
         (D.countries ds25)
     in
     (base, donors))

let make_events ~seed ~fraction ~epochs =
  let base, donors = Lazy.force fixture in
  Synth.generate ~seed ~fraction ~epochs ~base_epoch:0 ~base ~donors

let temp_log () =
  let p = Filename.temp_file "webdep_epoch_test" ".log" in
  Sys.remove p;
  p

(* Build a log the way a live feed would: create the baseline, then one
   O(churn) append per epoch. *)
let build_log ?path events =
  let base, _ = Lazy.force fixture in
  let path = match path with Some p -> p | None -> temp_log () in
  Log.create ~path ~base_epoch:0 ~base ();
  List.iter
    (fun (ev : Log.event) -> Log.append ~path ~epoch:ev.Log.epoch ev.Log.changes)
    events;
  path

let load_exn path =
  match Log.load ~path with
  | Log.Loaded l -> l
  | Log.Absent -> Alcotest.fail "log absent"
  | Log.Mismatch m -> Alcotest.fail ("log mismatch: " ^ m)

let by_cc l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* --- replay vs cold recompute -------------------------------------------- *)

(* The tentpole invariant: at EVERY intermediate epoch and in every
   layer, the incrementally maintained scores are bit-identical to a
   cold sweep over the materialized dataset. *)
let replay_matches_cold log =
  let checked = ref 0 in
  ignore
    (Replay.replay
       ~observe:(fun r ->
         let ds = D.of_country_data (Replay.materialize r) in
         List.iter
           (fun layer ->
             let warm = by_cc (Replay.scores r layer) in
             let cold = by_cc (Webdep.Metrics.all_scores ds layer) in
             if List.length warm <> List.length cold then
               Alcotest.failf "epoch %d: %d warm vs %d cold countries"
                 (Replay.epoch r) (List.length warm) (List.length cold);
             List.iter2
               (fun (wc, ws) (cc, cs) ->
                 if not (String.equal wc cc && float_eq ws cs) then
                   Alcotest.failf "epoch %d %s: warm %s=%.17g, cold %s=%.17g"
                     (Replay.epoch r)
                     (match layer with
                     | D.Hosting -> "hosting"
                     | D.Dns -> "dns"
                     | D.Ca -> "ca"
                     | D.Tld -> "tld")
                     wc ws cc cs)
               warm cold;
             incr checked)
           layers)
       log);
  !checked

let qcheck_replay_equals_recompute =
  QCheck.Test.make ~count:8 ~name:"replay = cold recompute at every epoch"
    QCheck.(
      make
        ~print:(fun (s, e, f) -> Printf.sprintf "seed %d, %d epochs, %.2f" s e f)
        Gen.(triple (int_range 1 1000) (int_range 1 5) (oneofl [ 0.05; 0.1; 0.25 ])))
    (fun (seed, epochs, fraction) ->
      let path = build_log (make_events ~seed ~fraction ~epochs) in
      let log = load_exn path in
      let checked = replay_matches_cold log in
      Sys.remove path;
      (* observe fires at the baseline and after each epoch, 4 layers. *)
      checked = 4 * (epochs + 1))

(* hhi and insularity ride the same incremental state: spot-check them
   against the cold dataset at the head. *)
let test_head_hhi_insularity () =
  let path = build_log (make_events ~seed:11 ~fraction:0.1 ~epochs:4) in
  let log = load_exn path in
  Sys.remove path;
  let r = Replay.replay log in
  let ds = D.of_country_data (Replay.materialize r) in
  List.iter
    (fun layer ->
      List.iter
        (fun cc ->
          match Replay.hhi r layer cc with
          | warm ->
              Alcotest.(check bool) "hhi bit-identical" true
                (float_eq warm
                   (Webdep_emd.Centralization.hhi (D.distribution ds layer cc)));
              Alcotest.(check bool) "insularity bit-identical" true
                (float_eq
                   (Replay.insularity r layer cc)
                   (Webdep.Regionalization.insularity ds layer cc))
          | exception Not_found -> ())
        test_countries)
    layers

(* --- log round-trip and recovery ------------------------------------------ *)

let test_log_roundtrip () =
  let events = make_events ~seed:5 ~fraction:0.1 ~epochs:3 in
  let path = build_log events in
  let log = load_exn path in
  Alcotest.(check bool) "nothing dropped" false log.Log.dropped;
  Alcotest.(check int) "head" 3 log.Log.head;
  Alcotest.(check int) "events" 3 (List.length log.Log.events);
  (* Atomic whole-log rewrite reproduces the same log. *)
  let path2 = temp_log () in
  Log.write ~path:path2 log;
  let log2 = load_exn path2 in
  Alcotest.(check bool) "rewrite round-trips" true
    (log.Log.base = log2.Log.base
    && log.Log.events = log2.Log.events
    && log.Log.base_epoch = log2.Log.base_epoch);
  (* And appends after a rewrite keep working. *)
  let more = make_events ~seed:6 ~fraction:0.1 ~epochs:4 in
  (match List.rev more with
  | last :: _ -> Log.append ~path:path2 ~epoch:4 last.Log.changes
  | [] -> Alcotest.fail "no events");
  Alcotest.(check int) "append after rewrite" 4 (load_exn path2).Log.head;
  Sys.remove path;
  Sys.remove path2

let test_empty_epoch_commit () =
  let path = build_log (make_events ~seed:5 ~fraction:0.1 ~epochs:2) in
  Log.append ~path ~epoch:9 [];
  let log = load_exn path in
  Alcotest.(check int) "empty epoch committed" 9 log.Log.head;
  (match List.rev log.Log.events with
  | ev :: _ -> Alcotest.(check int) "no changes" 0 (List.length ev.Log.changes)
  | [] -> Alcotest.fail "no events");
  Sys.remove path

(* Tear the last 10 bytes off a 3-epoch log: they belong to epoch 3's
   17-byte commit record, so epoch 3 must vanish. *)
let test_torn_tail_recovery () =
  let path = build_log (make_events ~seed:8 ~fraction:0.1 ~epochs:3) in
  let full = Frames.read path in
  Frames.write path (String.sub full 0 (String.length full - 10));
  let log = load_exn path in
  Alcotest.(check bool) "damage flagged" true log.Log.dropped;
  Alcotest.(check int) "head rolled back" 2 log.Log.head;
  Alcotest.(check int) "two committed epochs" 2 (List.length log.Log.events);
  (* A torn log still replays cleanly to its rolled-back head. *)
  let r = Replay.replay log in
  Alcotest.(check int) "replay reaches head" 2 (Replay.epoch r);
  Sys.remove path

let test_uncommitted_epoch_dropped () =
  let path = build_log (make_events ~seed:8 ~fraction:0.1 ~epochs:3) in
  (* Drop the final commit record whole: epoch 3's churn records are
     present and intact, but the transaction never committed. *)
  let full = Frames.read path in
  Frames.write path (String.sub full 0 (String.length full - 17));
  let log = load_exn path in
  Alcotest.(check bool) "uncommitted epoch flagged" true log.Log.dropped;
  Alcotest.(check int) "head rolled back" 2 log.Log.head;
  (* Re-appending the epoch after recovery works. *)
  Log.write ~path log;
  Log.append ~path ~epoch:3 [];
  Alcotest.(check int) "re-append" 3 (load_exn path).Log.head;
  Sys.remove path

let refuses name f =
  match f () with
  | () -> Alcotest.fail (name ^ ": append must be refused")
  | exception Invalid_argument _ -> ()

(* An append after a torn tail would land behind the damage, where the
   loader stops: it must be refused, not fsynced and lost. *)
let test_append_after_torn_tail_refused () =
  let events = make_events ~seed:8 ~fraction:0.1 ~epochs:4 in
  let path = build_log (List.filteri (fun i _ -> i < 3) events) in
  let full = Frames.read path in
  Frames.write path (String.sub full 0 (String.length full - 10));
  let e3 = List.nth events 2 and e4 = List.nth events 3 in
  refuses "re-append e3" (fun () -> Log.append ~path ~epoch:3 e3.Log.changes);
  refuses "append e4" (fun () -> Log.append ~path ~epoch:4 e4.Log.changes);
  Alcotest.(check int) "head unchanged" 2 (load_exn path).Log.head;
  (* Loading and rewriting repairs the log; appends then land. *)
  Log.write ~path (load_exn path);
  Log.append ~path ~epoch:3 e3.Log.changes;
  Log.append ~path ~epoch:4 e4.Log.changes;
  let log = load_exn path in
  Alcotest.(check int) "head after repair" 4 log.Log.head;
  Alcotest.(check bool) "events after repair" true (log.Log.events = events);
  Sys.remove path

(* A stale epoch appended after a later one would make everything that
   follows it invisible to the loader. *)
let test_stale_append_refused () =
  let events = make_events ~seed:8 ~fraction:0.1 ~epochs:4 in
  let path = build_log (List.filteri (fun i _ -> i < 3) events) in
  refuses "stale e2" (fun () -> Log.append ~path ~epoch:2 []);
  refuses "repeated e3" (fun () -> Log.append ~path ~epoch:3 []);
  let e4 = List.nth events 3 in
  Log.append ~path ~epoch:4 e4.Log.changes;
  let log = load_exn path in
  Alcotest.(check int) "e4 visible" 4 log.Log.head;
  Alcotest.(check bool) "not dropped" false log.Log.dropped;
  Sys.remove path

let test_load_rejects () =
  let path = temp_log () in
  Alcotest.(check bool) "absent" true (Log.load ~path = Log.Absent);
  (* A log of the previous JSON-lines schema is refused by its header. *)
  let oc = open_out path in
  output_string oc "{\"schema\":\"webdep-epoch/1\",\"base\":0,\"meta\":{}}\n";
  close_out oc;
  (match Log.load ~path with
  | Log.Mismatch _ -> ()
  | _ -> Alcotest.fail "foreign schema must mismatch");
  (* A baseline cut before its commit record is no log at all. *)
  let built = build_log [] in
  let full = Frames.read built in
  Sys.remove built;
  Frames.write path (String.sub full 0 (String.length full - 17));
  (match Log.load ~path with
  | Log.Mismatch _ -> ()
  | _ -> Alcotest.fail "uncommitted baseline must mismatch");
  let oc = open_out path in
  output_string oc "not json at all\n";
  close_out oc;
  (match Log.load ~path with
  | Log.Mismatch _ -> ()
  | _ -> Alcotest.fail "garbage header must mismatch");
  Sys.remove path

(* --- compaction ----------------------------------------------------------- *)

let test_compaction_bit_identity () =
  let path = build_log (make_events ~seed:21 ~fraction:0.1 ~epochs:6) in
  let raw = load_exn path in
  let compacted = Replay.compact raw ~keep_last:2 in
  Alcotest.(check int) "new baseline epoch" 4 compacted.Log.base_epoch;
  Alcotest.(check int) "kept events" 2 (List.length compacted.Log.events);
  Alcotest.(check int) "same head" raw.Log.head compacted.Log.head;
  (* The compacted log round-trips through disk... *)
  let path2 = temp_log () in
  Log.write ~path:path2 compacted;
  let reloaded = load_exn path2 in
  Alcotest.(check bool) "compacted log round-trips" true
    (reloaded.Log.base = compacted.Log.base
    && reloaded.Log.events = compacted.Log.events);
  (* ...and replays to a bit-identical head: same materialized sites,
     same scores in every layer. *)
  let r_raw = Replay.replay raw in
  let r_cmp = Replay.replay reloaded in
  Alcotest.(check bool) "materialized datasets identical" true
    (Replay.materialize r_raw = Replay.materialize r_cmp);
  List.iter
    (fun layer ->
      List.iter2
        (fun (c1, s1) (c2, s2) ->
          Alcotest.(check string) "country" c1 c2;
          Alcotest.(check bool) "score bits" true (float_eq s1 s2))
        (Replay.scores r_raw layer)
        (Replay.scores r_cmp layer))
    layers;
  (* Compacting below the current base is a no-op. *)
  let noop = Replay.compact reloaded ~keep_last:10 in
  Alcotest.(check int) "no-op compaction keeps base" reloaded.Log.base_epoch
    noop.Log.base_epoch;
  Sys.remove path;
  Sys.remove path2

let test_compaction_shrinks () =
  let path = build_log (make_events ~seed:22 ~fraction:0.15 ~epochs:8) in
  let raw_bytes = (Unix.stat path).Unix.st_size in
  let compacted = Replay.compact (load_exn path) ~keep_last:2 in
  let path2 = temp_log () in
  Log.write ~path:path2 compacted;
  let compacted_bytes = (Unix.stat path2).Unix.st_size in
  Alcotest.(check bool)
    (Printf.sprintf "compacted baseline beats churn records (%d vs %d)"
       compacted_bytes raw_bytes)
    true
    (compacted_bytes < raw_bytes);
  Sys.remove path;
  Sys.remove path2

(* --- apply validation ------------------------------------------------------ *)

let test_apply_rejects () =
  let path = build_log (make_events ~seed:2 ~fraction:0.1 ~epochs:1) in
  let log = load_exn path in
  Sys.remove path;
  let fresh () = Replay.start log in
  let check_rejects name ev =
    let r = fresh () in
    match Replay.apply r ev with
    | () -> Alcotest.fail (name ^ ": must be rejected")
    | exception Invalid_argument _ -> ()
  in
  check_rejects "stale epoch"
    { Log.epoch = 0; changes = [] };
  check_rejects "unknown country"
    { Log.epoch = 1;
      changes = [ { Log.country = "ZZ"; removed = []; added = [] } ] };
  check_rejects "removal of absent domain"
    { Log.epoch = 1;
      changes = [ { Log.country = "US"; removed = [ "no-such.example" ]; added = [] } ] }

(* A record rejected after earlier ones of the same event were accepted
   must leave no trace: the sites and every layer's scores stay those
   of a fresh start, and the corrected event then applies cleanly. *)
let test_rejected_event_leaves_no_trace () =
  let path = build_log (make_events ~seed:2 ~fraction:0.1 ~epochs:1) in
  let log = load_exn path in
  Sys.remove path;
  let ev = List.hd log.Log.events in
  let record cc = List.find (fun (c : Log.churn) -> c.Log.country = cc) ev.Log.changes in
  let us = record "US" and de = record "DE" in
  (* A DE baseline site the DE record keeps: adding it again is a duplicate. *)
  let kept_de =
    let base = List.find (fun (cd : D.country_data) -> cd.D.country = "DE") log.Log.base in
    List.find (fun (s : D.site) -> not (List.mem s.D.domain de.Log.removed)) base.D.sites
  in
  let same_state what a b =
    Alcotest.(check bool) (what ^ ": sites") true
      (Replay.materialize a = Replay.materialize b);
    List.iter
      (fun layer ->
        let sa = Replay.scores a layer and sb = Replay.scores b layer in
        Alcotest.(check bool) (what ^ ": scores") true
          (List.length sa = List.length sb
          && List.for_all2
               (fun (c1, s1) (c2, s2) -> String.equal c1 c2 && float_eq s1 s2)
               sa sb))
      layers
  in
  let r = Replay.start log in
  List.iter
    (fun (name, bad) ->
      (match Replay.apply r { Log.epoch = 1; changes = [ us; bad ] } with
      | () -> Alcotest.fail (name ^ ": must be rejected")
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) (name ^ ": epoch unchanged") 0 (Replay.epoch r);
      same_state name r (Replay.start log))
    [
      ("absent domain", { Log.country = "DE"; removed = [ "no-such.example" ]; added = [] });
      ("duplicate domain", { de with Log.added = de.Log.added @ [ kept_de ] });
    ];
  Replay.apply r ev;
  Alcotest.(check int) "corrected event accepted" 1 (Replay.epoch r);
  same_state "corrected event" r (Replay.replay log)

(* --- trends ---------------------------------------------------------------- *)

let test_trend_extraction () =
  let path = build_log (make_events ~seed:13 ~fraction:0.1 ~epochs:5) in
  let log = load_exn path in
  Sys.remove path;
  let _, trend = Trend.of_log log D.Hosting in
  Alcotest.(check int) "one observation per epoch incl. baseline" 6
    (Array.length trend.Trend.epochs);
  Alcotest.(check int) "one transition fewer" 5 (Array.length trend.Trend.rank_churn);
  Alcotest.(check int) "a series per country" 4 (List.length trend.Trend.series);
  List.iter
    (fun (s : Trend.series) ->
      Alcotest.(check int) "series length" 6 (Array.length s.Trend.scores);
      Alcotest.(check bool) "slope finite" true (Float.is_finite s.Trend.slope))
    trend.Trend.series;
  let rendered = Trend.render trend in
  Alcotest.(check bool) "render mentions rank churn" true
    (String.length rendered > 0
    &&
    let sub = "rank churn" in
    let n = String.length sub and m = String.length rendered in
    let rec go i = i + n <= m && (String.sub rendered i n = sub || go (i + 1)) in
    go 0)

(* Longitudinal primitives backing the trends. *)
let test_slope_and_displacement () =
  let module L = Webdep.Longitudinal in
  Alcotest.(check (float 1e-9)) "exact line" 2.0
    (L.slope [| 1.0; 3.0; 5.0; 7.0 |]);
  Alcotest.(check (float 1e-9)) "flat" 0.0 (L.slope [| 4.0; 4.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "NaN skipped" 2.0
    (L.slope [| 1.0; Float.nan; 5.0 |]);
  Alcotest.(check (float 1e-9)) "degenerate" 0.0 (L.slope [| 1.0 |]);
  Alcotest.(check int) "no churn" 0
    (L.rank_displacement [ ("A", 2.0); ("B", 1.0) ] [ ("A", 5.0); ("B", 4.0) ]);
  Alcotest.(check int) "swap costs two" 2
    (L.rank_displacement [ ("A", 2.0); ("B", 1.0) ] [ ("A", 1.0); ("B", 2.0) ])

(* --- suite ------------------------------------------------------------------ *)

let () =
  Webdep_par.set_jobs 2;
  Alcotest.run "webdep_epoch"
    [
      ( "replay",
        [
          QCheck_alcotest.to_alcotest qcheck_replay_equals_recompute;
          Alcotest.test_case "head hhi/insularity = cold" `Quick
            test_head_hhi_insularity;
          Alcotest.test_case "apply validation" `Quick test_apply_rejects;
          Alcotest.test_case "rejected event leaves no trace" `Quick
            test_rejected_event_leaves_no_trace;
        ] );
      ( "log",
        [
          Alcotest.test_case "round-trip" `Quick test_log_roundtrip;
          Alcotest.test_case "empty epoch commit" `Quick test_empty_epoch_commit;
          Alcotest.test_case "torn tail recovery" `Quick test_torn_tail_recovery;
          Alcotest.test_case "uncommitted epoch dropped" `Quick
            test_uncommitted_epoch_dropped;
          Alcotest.test_case "append after torn tail refused" `Quick
            test_append_after_torn_tail_refused;
          Alcotest.test_case "stale append refused" `Quick test_stale_append_refused;
          Alcotest.test_case "rejects" `Quick test_load_rejects;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "bit-identical replay" `Quick
            test_compaction_bit_identity;
          Alcotest.test_case "compacted smaller than raw" `Quick
            test_compaction_shrinks;
        ] );
      ( "trend",
        [
          Alcotest.test_case "series, slopes, rank churn" `Quick
            test_trend_extraction;
          Alcotest.test_case "slope / rank displacement" `Quick
            test_slope_and_displacement;
        ] );
    ]
