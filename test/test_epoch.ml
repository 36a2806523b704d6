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

(* The log of the fixture's baseline alone, never written to disk. *)
let base_log () =
  let base, _ = Lazy.force fixture in
  { Log.meta = []; base_epoch = 0; base; events = []; head = 0; dropped = false }

(* Every layer's S, HHI and insularity of every baseline country as
   float bits, [None] where the country has no labelled site: once from
   the replay state, once cold from its materialized dataset. *)
let bits (s, h, i) = (Int64.bits_of_float s, Int64.bits_of_float h, Int64.bits_of_float i)

let warm_metrics r =
  List.concat_map
    (fun layer ->
      List.map
        (fun cc ->
          match Replay.score r layer cc with
          | s -> Some (bits (s, Replay.hhi r layer cc, Replay.insularity r layer cc))
          | exception Not_found -> None)
        (Replay.countries r))
    layers

let cold_metrics r =
  let ds = D.of_country_data (Replay.materialize r) in
  List.concat_map
    (fun layer ->
      List.map
        (fun cc ->
          match D.distribution ds layer cc with
          | dist ->
              Some
                (bits
                   ( Webdep.Metrics.centralization ds layer cc,
                     Webdep_emd.Centralization.hhi dist,
                     Webdep.Regionalization.insularity ds layer cc ))
          | exception Not_found -> None)
        (Replay.countries r))
    layers

let matches_cold what r =
  Alcotest.(check bool) (what ^ ": S, HHI, insularity = cold") true
    (warm_metrics r = cold_metrics r)

let same_state what a b =
  Alcotest.(check bool) (what ^ ": sites") true
    (Replay.materialize a = Replay.materialize b);
  Alcotest.(check bool) (what ^ ": S, HHI, insularity") true
    (warm_metrics a = warm_metrics b)

(* The site lists after [ev] by plain list edits: each record, in order,
   drops its removals and appends its additions. *)
let edit_plain current (ev : Log.event) =
  List.fold_left
    (fun current (c : Log.churn) ->
      List.map
        (fun (cd : D.country_data) ->
          if cd.D.country <> c.Log.country then cd
          else
            {
              cd with
              D.sites =
                List.filter
                  (fun (s : D.site) -> not (List.mem s.D.domain c.Log.removed))
                  cd.D.sites
                @ c.Log.added;
            })
        current)
    current ev.Log.changes

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
  (* A meta header whose \u escape is not four hex digits, under a
     valid CRC, is a mismatch too, not an exception. *)
  let base, _ = Lazy.force fixture in
  Log.create ~path ~meta:[ ("x", Webdep_json.String "\001") ] ~base_epoch:0 ~base ();
  let module S = Webdep_faults.Segment in
  (match S.fold ~path ~init:(fun h -> Some (h, [])) ~f:(fun (h, rs) r -> Some (h, r :: rs)) with
  | S.Folded { acc = header, rev; torn = false } ->
      let rec at i = if String.sub header i 6 = "\\u0001" then i else at (i + 1) in
      let b = Bytes.of_string header in
      Bytes.blit_string "\\uZZZZ" 0 b (at 0) 6;
      S.write ~path ~header:(Bytes.to_string b) (List.rev rev)
  | _ -> Alcotest.fail "log unreadable");
  (match Log.load ~path with
  | Log.Mismatch _ -> ()
  | _ -> Alcotest.fail "bad \\u escape in the header must mismatch");
  (* A path that cannot be read, here a directory, is a mismatch that
     gives the reason, not an exception. *)
  Sys.remove path;
  Sys.mkdir path 0o755;
  let verdict = Log.load ~path in
  Sys.rmdir path;
  match verdict with
  | Log.Mismatch msg -> Alcotest.(check string) "a directory: the reason" "Is a directory" msg
  | _ -> Alcotest.fail "a directory must mismatch"

(* --- golden bytes ----------------------------------------------------------- *)

(* The bytes of a log built on the fixture: created with a meta header,
   five epochs appended one at a time, then compacted to the last two
   and rewritten.  The digest pins the framing, the CRCs, the site
   codec's string tables and compaction's site order; a change to any
   of them has to re-pin it on purpose. *)
let golden_log_digest = "722994b42781c0ac53804df67c24c0f7"

let golden_meta = [ ("seed", Webdep_json.Int 2024); ("c", Webdep_json.Int 60) ]

let test_golden_log_bytes () =
  let base, _ = Lazy.force fixture in
  let events = make_events ~seed:31 ~fraction:0.1 ~epochs:5 in
  let path = temp_log () and written = temp_log () and compact_path = temp_log () in
  Log.create ~path ~meta:golden_meta ~base_epoch:0 ~base ();
  let created = Frames.read path in
  List.iter
    (fun (ev : Log.event) -> Log.append ~path ~epoch:ev.Log.epoch ev.Log.changes)
    events;
  let appended = Frames.read path in
  Log.write ~path:compact_path (Replay.compact (load_exn path) ~keep_last:2);
  let compacted = Frames.read compact_path in
  (* The writer that applies each epoch before appending it writes the
     same bytes. *)
  Log.create ~path:written ~meta:golden_meta ~base_epoch:0 ~base ();
  let writer = Replay.start (load_exn written) in
  List.iter (Replay.append writer ~path:written) events;
  Alcotest.(check bool) "Replay.append writes Log.append's bytes" true
    (Frames.read written = appended);
  List.iter Sys.remove [ path; written; compact_path ];
  Alcotest.(check string) "create, append, compact digest" golden_log_digest
    (Digest.to_hex (Digest.string (String.concat "|" [ created; appended; compacted ])))

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

(* Edits that meet the tally ids a site keeps: a record that removes a
   domain and re-adds it under other labels, two records for one
   country in one event (the second takes out what the first added),
   and an event rejected after such edits, whose rollback must restore
   each entry with the ids it was counted under. *)
let test_replay_edits_by_id () =
  let base, donors = Lazy.force fixture in
  let sites cc = (List.find (fun (cd : D.country_data) -> cd.D.country = cc) base).D.sites in
  (* A donor of [cc] whose hosting label differs from [s]'s, renamed [dom]. *)
  let relabel cc (s : D.site) dom =
    let d =
      List.find
        (fun (d : D.site) -> d.D.hosting <> s.D.hosting)
        (Array.to_list (List.assoc cc donors))
    in
    { d with D.domain = dom }
  in
  let us3 = List.nth (sites "US") 3 and de = sites "DE" in
  let d = us3.D.domain in
  let us = { Log.country = "US"; removed = [ d ]; added = [ relabel "US" us3 d ] } in
  let x = relabel "DE" (List.hd de) "x.example" in
  let x' = relabel "DE" x "x.example" in
  let de1 = { Log.country = "DE"; removed = [ (List.hd de).D.domain ]; added = [ x ] } in
  let de2 =
    { Log.country = "DE"; removed = [ (List.nth de 5).D.domain; "x.example" ]; added = [ x' ] }
  in
  let ev1 = { Log.epoch = 1; changes = [ us; de1; de2 ] } in
  let r = Replay.start (base_log ()) in
  Replay.apply r ev1;
  Alcotest.(check bool) "e1 sites = list edits" true
    (Replay.materialize r = edit_plain base ev1);
  matches_cold "e1" r;
  (* Put [d] back under its own labels and [x] back for [x'], then name a
     country outside the baseline: the event is refused whole. *)
  let us_back = { Log.country = "US"; removed = [ d ]; added = [ us3 ] } in
  let de3 = { Log.country = "DE"; removed = [ "x.example" ]; added = [ x ] } in
  let bad = { Log.country = "ZZ"; removed = []; added = [] } in
  (match Replay.apply r { Log.epoch = 2; changes = [ us_back; de3; bad ] } with
  | () -> Alcotest.fail "an unknown country must be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "epoch unchanged" 1 (Replay.epoch r);
  let fresh = Replay.start (base_log ()) in
  Replay.apply fresh ev1;
  same_state "rejected event = fresh start" r fresh;
  matches_cold "rejected event" r;
  let ev2 = { Log.epoch = 2; changes = [ us_back; de3 ] } in
  Replay.apply r ev2;
  Alcotest.(check bool) "e2 sites = list edits" true
    (Replay.materialize r = edit_plain (edit_plain base ev1) ev2);
  matches_cold "e2" r

(* --- the writer ------------------------------------------------------------- *)

(* [Replay.append] refuses an epoch that does not apply before it writes
   a byte; the next good epoch then appends and loads. *)
let test_append_refuses_bad_epochs () =
  let events = make_events ~seed:4 ~fraction:0.1 ~epochs:2 in
  let e1 = List.nth events 0 and e2 = List.nth events 1 in
  let path = build_log [] in
  let r = Replay.start (load_exn path) in
  Replay.append r ~path e1;
  let us = List.find (fun (cd : D.country_data) -> cd.D.country = "US") (Replay.materialize r) in
  let present = List.hd us.D.sites in
  let good = List.hd e2.Log.changes in
  let before = Frames.read path in
  List.iter
    (fun (name, bad) ->
      (match Replay.append r ~path { Log.epoch = 2; changes = [ good; bad ] } with
      | () -> Alcotest.fail (name ^ ": must be refused")
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) (name ^ ": file bytes unchanged") true (Frames.read path = before);
      Alcotest.(check int) (name ^ ": state unchanged") 1 (Replay.epoch r))
    [
      ( "absent domain removed",
        { Log.country = "US"; removed = [ "no-such.example" ]; added = [] } );
      ("present domain added", { Log.country = "US"; removed = []; added = [ present ] });
      ("country outside the baseline", { Log.country = "ZZ"; removed = []; added = [] });
    ];
  (* A writer whose state is not the file's head is refused too, even
     with an event that applies to its state. *)
  let behind = Replay.start (base_log ()) in
  (match Replay.append behind ~path { Log.epoch = 2; changes = [] } with
  | () -> Alcotest.fail "a writer behind the file must be refused"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "stale writer: file bytes unchanged" true (Frames.read path = before);
  Replay.append r ~path e2;
  let log = load_exn path in
  Sys.remove path;
  Alcotest.(check int) "head" 2 log.Log.head;
  Alcotest.(check bool) "events" true (log.Log.events = [ e1; e2 ]);
  same_state "reloaded = writer" (Replay.replay log) r

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
          Alcotest.test_case "edits by stored tally ids" `Quick test_replay_edits_by_id;
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
          Alcotest.test_case "golden bytes" `Quick test_golden_log_bytes;
          Alcotest.test_case "writer refuses bad epochs" `Quick
            test_append_refuses_bad_epochs;
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
