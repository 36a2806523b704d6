(* Unit tests for webdep_prof (and the multi-domain behaviour of the
   webdep_obs sinks it builds on): the span recorder and trace file
   under a 4-domain hammer, span depth balance across domains and
   exceptions, hotspot aggregation self/cumulative math, the Chrome
   trace export/load round trip and its mutation fuzz, and the
   noise-aware regression gate's verdicts and its strict reading of
   bench documents. *)

module Sink = Webdep_obs.Sink
module Span = Webdep_obs.Span
module Json = Webdep_json
module Profile = Webdep_prof.Profile
module Trace = Webdep_prof.Trace
module Regress = Webdep_prof.Regress

(* --- multi-domain sink behaviour ---------------------------------------- *)

let spans_per_domain = 200
let domains = 4

(* Four domains each emit nested spans as fast as they can into one
   recorder: every span is recorded exactly once, and the written file
   gives each lane back its own events. *)
let test_trace_multi_domain_hammer () =
  let path = Filename.temp_file "webdep_prof" ".trace.json" in
  let recorder = Profile.collector () in
  Sink.with_sink (Profile.collector_sink recorder) (fun () ->
      let spawned =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                Span.set_lane (100 + d);
                for i = 1 to spans_per_domain do
                  Span.with_ ~name:(Printf.sprintf "hammer.outer.%d" d) (fun () ->
                      Span.with_
                        ~name:(Printf.sprintf "hammer.inner.%d" d)
                        ~attrs:[ ("i", string_of_int i) ]
                        (fun () -> ignore (Sys.opaque_identity (i * i))))
                done))
      in
      List.iter Domain.join spawned);
  Trace.write path (Profile.events recorder);
  let events = Trace.load path in
  Sys.remove path;
  Alcotest.(check int) "every span recorded exactly once"
    (domains * spans_per_domain * 2)
    (List.length events);
  for d = 0 to domains - 1 do
    let mine = List.filter (fun (ev : Sink.event) -> ev.Sink.lane = 100 + d) events in
    let named kind =
      let name = Printf.sprintf "hammer.%s.%d" kind d in
      List.filter (fun (ev : Sink.event) -> ev.Sink.name = name) mine
    in
    let inner = named "inner" in
    Alcotest.(check int) (Printf.sprintf "lane %d outer spans" d) spans_per_domain
      (List.length (named "outer"));
    Alcotest.(check (list int)) (Printf.sprintf "lane %d inner spans, once each" d)
      (List.init spans_per_domain succ)
      (List.sort compare
         (List.map (fun (ev : Sink.event) -> int_of_string (List.assoc "i" ev.Sink.attrs)) inner));
    Alcotest.(check int) (Printf.sprintf "lane %d holds only its own" d)
      (2 * spans_per_domain) (List.length mine)
  done

(* Exceptions inside spans on worker domains must leave each domain's
   nesting depth balanced: a span opened after the carnage still closes
   at depth 0. *)
let test_exception_depth_balanced_across_domains () =
  let c = Profile.collector () in
  Sink.with_sink (Profile.collector_sink c) (fun () ->
      let spawned =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                Span.set_lane (200 + d);
                for _ = 1 to 50 do
                  try
                    Span.with_ ~name:"thrower.outer" (fun () ->
                        Span.with_ ~name:"thrower.inner" (fun () -> failwith "boom"))
                  with Failure _ -> ()
                done;
                Span.with_ ~name:"after.exceptions" (fun () -> ())))
      in
      List.iter Domain.join spawned);
  let after =
    List.filter (fun (ev : Sink.event) -> ev.Sink.name = "after.exceptions") (Profile.events c)
  in
  Alcotest.(check int) "one trailing span per domain" domains (List.length after);
  List.iter
    (fun (ev : Sink.event) ->
      Alcotest.(check int) "trailing span closed at depth 0" 0 ev.Sink.depth)
    after

(* --- hotspot aggregation ------------------------------------------------ *)

let ev ?(lane = 0) ?(attrs = []) ?(minor = 0.0) name start dur depth =
  {
    Sink.name;
    attrs;
    start_s = start;
    duration_s = dur;
    depth;
    lane;
    gc = { Sink.zero_gc with Sink.minor_words = minor };
  }

let row rows label =
  match List.find_opt (fun (r : Profile.row) -> r.Profile.label = label) rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for %s" label

let test_aggregate_self_vs_cumulative () =
  (* lane 0:  parent [0, 1.0) at depth 0
                child [0.1, 0.3) and [0.5, 0.2) at depth 1
     lane 1:  solo [0, 0.4) at depth 0
     Close order is what the collector would record: children first. *)
  let events =
    [
      ev "child" 0.1 0.3 1 ~minor:100.0;
      ev "child" 0.5 0.2 1 ~minor:50.0;
      ev "parent" 0.0 1.0 0 ~minor:400.0;
      ev "solo" 0.0 0.4 0 ~lane:1 ~minor:30.0;
    ]
  in
  let rows = Profile.aggregate events in
  let parent = row rows "parent" and child = row rows "child" and solo = row rows "solo" in
  Alcotest.(check int) "parent calls" 1 parent.Profile.calls;
  Alcotest.(check (float 1e-9)) "parent cum is its duration" 1.0 parent.Profile.cum_s;
  Alcotest.(check (float 1e-9)) "parent self excludes children" 0.5 parent.Profile.self_s;
  Alcotest.(check (float 1e-9)) "parent self alloc excludes children" 250.0
    parent.Profile.self_minor_words;
  Alcotest.(check int) "child calls" 2 child.Profile.calls;
  Alcotest.(check (float 1e-9)) "leaf self equals cum" child.Profile.cum_s
    child.Profile.self_s;
  Alcotest.(check (float 1e-9)) "children keep their own time" 0.5 child.Profile.cum_s;
  Alcotest.(check (float 1e-9)) "other lanes never subtract" 0.4 solo.Profile.self_s;
  (* Self times over all rows add up to the wall clock of both lanes. *)
  let total_self = List.fold_left (fun acc r -> acc +. r.Profile.self_s) 0.0 rows in
  Alcotest.(check (float 1e-9)) "self times partition the wall clock" 1.4 total_self

let test_aggregate_loaded_trace_order () =
  (* The same tree presented in start order (as a loaded trace would
     be): aggregation must re-derive close order and still subtract the
     children. *)
  let events =
    [
      ev "parent" 0.0 1.0 0;
      ev "child" 0.1 0.3 1;
      ev "child" 0.5 0.2 1;
    ]
  in
  let rows = Profile.aggregate events in
  Alcotest.(check (float 1e-9)) "self computed from unsorted input" 0.5
    (row rows "parent").Profile.self_s

(* --- trace export / load ------------------------------------------------ *)

let test_trace_roundtrip () =
  let path = Filename.temp_file "webdep_prof" ".trace.json" in
  let events =
    [
      ev "alpha" 0.0 0.5 0 ~minor:128.0 ~attrs:[ ("cc", "US") ];
      ev "beta" 0.1 0.2 1 ~lane:0;
      ev "gamma" 0.05 0.3 0 ~lane:3;
    ]
  in
  Trace.write path events;
  let loaded = Trace.load path in
  Alcotest.(check int) "all events survive" 3 (List.length loaded);
  let find name = List.find (fun (e : Sink.event) -> e.Sink.name = name) loaded in
  let a = find "alpha" in
  Alcotest.(check (float 1e-9)) "start survives (us precision)" 0.0 a.Sink.start_s;
  Alcotest.(check (float 1e-9)) "duration survives" 0.5 a.Sink.duration_s;
  Alcotest.(check int) "depth survives" 1 (find "beta").Sink.depth;
  Alcotest.(check int) "lane survives" 3 (find "gamma").Sink.lane;
  Alcotest.(check (float 1e-9)) "gc delta survives" 128.0 a.Sink.gc.Sink.minor_words;
  Alcotest.(check bool) "attrs survive" true (List.mem ("cc", "US") a.Sink.attrs);
  Sys.remove path

let test_trace_document_structure () =
  let events = [ ev "alpha" 0.0 0.5 0 ~lane:0; ev "beta" 0.0 0.1 0 ~lane:2 ] in
  let doc = Trace.document events in
  (match Json.member "displayTimeUnit" doc with
  | Some (Json.String "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let tev = match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let phases =
    List.filter_map
      (fun e -> match Json.member "ph" e with Some (Json.String p) -> Some p | _ -> None)
      tev
  in
  Alcotest.(check int) "process_name + 2 thread_name metadata events" 3
    (List.length (List.filter (( = ) "M") phases));
  Alcotest.(check int) "one X event per span" 2
    (List.length (List.filter (( = ) "X") phases));
  (* tid is the lane: the one-track-per-domain contract. *)
  let tids =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "tid" e) with
        | Some (Json.String "X"), Some (Json.Int t) -> Some t
        | _ -> None)
      tev
  in
  Alcotest.(check (list int)) "tids are the lanes" [ 0; 2 ] (List.sort compare tids)

(* The recorder form: spans emitted under the installed collector sink
   land in the file [Trace.write] writes, loadable and aggregatable. *)
let test_trace_sink_flush () =
  let path = Filename.temp_file "webdep_prof" ".trace.json" in
  let recorder = Profile.collector () in
  Sink.with_sink (Profile.collector_sink recorder) (fun () ->
      Span.with_ ~name:"sinked.outer" (fun () ->
          Span.with_ ~name:"sinked.inner" (fun () -> ())));
  Trace.write path (Profile.events recorder);
  let rows = Profile.aggregate (Trace.load path) in
  Alcotest.(check int) "both spans loadable through the profiler" 2 (List.length rows);
  Sys.remove path

(* A file that is not a trace is refused with a reason, never read as
   an empty profile; a span with a wrong-typed field is refused by its
   index, never dropped. *)
let test_trace_refusals () =
  let path = Filename.temp_file "webdep_prof" ".trace.json" in
  let refused what contents expect =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    match Trace.load path with
    | _ -> Alcotest.failf "%s: loaded" what
    | exception Trace.Bad_trace msg ->
        Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what msg expect) true
          (String.starts_with ~prefix:expect msg)
  in
  refused "empty" "" "not a JSON document";
  refused "not JSON" "hello" "not a JSON document";
  refused "truncated" {|{"traceEvents":[{"ph":"X","name":"a","ts":1|} "not a JSON document";
  refused "no events" {|{"displayTimeUnit":"ms"}|} "no traceEvents list";
  let events =
    Printf.sprintf {|{"traceEvents":[{"ph":"M"},{"ph":"X","name":"a"},%s]}|}
  in
  refused "ts a string" (events {|{"ph":"X","name":"b","ts":"soon"}|}) "event 2: ts";
  refused "name a number" (events {|{"ph":"X","name":7}|}) "event 2: name";
  refused "tid a float" (events {|{"ph":"X","name":"b","tid":1.5}|}) "event 2: tid";
  refused "depth a string" (events {|{"ph":"X","name":"b","args":{"depth":"1"}}|})
    "event 2: depth";
  refused "args a list" (events {|{"ph":"X","name":"b","args":[]}|}) "event 2: args";
  refused "an event not an object" (events "3") "event 2: the event";
  Out_channel.with_open_bin path (fun oc -> output_string oc (events {|{"ph":"X","name":"b"}|}));
  Alcotest.(check int) "absent fields read as zero" 2 (List.length (Trace.load path));
  Sys.remove path

(* Flipped, truncated or inserted bytes in a trace [Trace.write] wrote
   give events or [Bad_trace], never another exception. *)
let qcheck_trace_mutation =
  let written =
    lazy
      (let path = Filename.temp_file "webdep_prof" ".trace.json" in
       Trace.write path
         [ ev "alpha" 0.0 0.5 0 ~minor:128.0 ~attrs:[ ("cc", "US") ];
           ev "beta" 0.1 0.2 1 ~lane:0;
           ev "gamma" 0.05 0.3 0 ~lane:3 ];
       let s = In_channel.with_open_bin path In_channel.input_all in
       Sys.remove path;
       s)
  in
  QCheck.Test.make ~count:2000 ~name:"mutated trace files raise only Bad_trace"
    QCheck.(
      make
        ~print:(fun (kind, i, c) -> Printf.sprintf "%s %d %C" kind i c)
        Gen.(triple (oneofl [ "flip"; "truncate"; "insert" ]) nat char))
    (fun (kind, i, c) ->
      let s = Lazy.force written in
      let n = String.length s in
      let at = i mod (n + 1) in
      let mutant =
        match kind with
        | "flip" -> String.mapi (fun j ch -> if j = i mod n then c else ch) s
        | "truncate" -> String.sub s 0 at
        | _ -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
      in
      let path = Filename.temp_file "webdep_prof" ".trace.json" in
      Out_channel.with_open_bin path (fun oc -> output_string oc mutant);
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      match Trace.load path with _ -> true | exception Trace.Bad_trace _ -> true)

(* --- regression gate ---------------------------------------------------- *)

let phases l = List.map (fun (name, secs, mw) -> { Regress.name; secs; minor_words = mw }) l

let base_phases =
  phases
    [
      ("measure", 2.0, 5e7); ("kernels", 1.0, 2e7); ("store", 0.5, 1e7);
      ("faults", 0.25, 8e6); ("tiny", 0.001, 1e3);
    ]

let test_gate_identical_ok () =
  let r = Regress.compare_runs ~baseline:base_phases ~current:base_phases () in
  Alcotest.(check bool) "identical runs pass" true r.Regress.ok;
  Alcotest.(check (float 1e-9)) "speed factor 1" 1.0 r.Regress.speed_factor

let test_gate_uniform_slowdown_ok () =
  (* A machine uniformly 3x slower moves the median, not the verdict. *)
  let current =
    List.map (fun (p : Regress.phase) -> { p with Regress.secs = p.Regress.secs *. 3.0 }) base_phases
  in
  let r = Regress.compare_runs ~baseline:base_phases ~current () in
  Alcotest.(check bool) "uniform slowdown passes" true r.Regress.ok;
  Alcotest.(check (float 1e-9)) "speed factor is the slowdown" 3.0 r.Regress.speed_factor

let test_gate_single_phase_regression () =
  let current =
    List.map
      (fun (p : Regress.phase) ->
        if p.Regress.name = "kernels" then { p with Regress.secs = 5.0 } else p)
      base_phases
  in
  let r = Regress.compare_runs ~baseline:base_phases ~current () in
  Alcotest.(check bool) "inflated phase fails" false r.Regress.ok;
  let bad = List.filter (fun (v : Regress.verdict) -> not v.Regress.ok) r.Regress.verdicts in
  Alcotest.(check (list string)) "only the inflated phase is flagged" [ "kernels" ]
    (List.map (fun (v : Regress.verdict) -> v.Regress.phase) bad)

let test_gate_tiny_phase_never_alarms () =
  (* A microsecond phase 100x slower is timer noise, not a regression. *)
  let current =
    List.map
      (fun (p : Regress.phase) ->
        if p.Regress.name = "tiny" then { p with Regress.secs = 0.1 } else p)
      base_phases
  in
  let r = Regress.compare_runs ~baseline:base_phases ~current () in
  Alcotest.(check bool) "sub-floor phases never alarm" true r.Regress.ok

let test_gate_alloc_regression () =
  (* Same wall time, doubled allocation in one phase: the machine-speed
     normalization must not excuse it. *)
  let current =
    List.map
      (fun (p : Regress.phase) ->
        if p.Regress.name = "measure" then { p with Regress.minor_words = 1e8 } else p)
      base_phases
  in
  let r = Regress.compare_runs ~baseline:base_phases ~current () in
  Alcotest.(check bool) "alloc regression fails" false r.Regress.ok;
  let bad = List.filter (fun (v : Regress.verdict) -> not v.Regress.ok) r.Regress.verdicts in
  Alcotest.(check bool) "flagged as an alloc check" true
    (List.for_all (fun (v : Regress.verdict) -> v.Regress.check = Regress.Alloc) bad)

let test_gate_missing_phase () =
  let current =
    List.filter (fun (p : Regress.phase) -> p.Regress.name <> "store") base_phases
  in
  let r = Regress.compare_runs ~baseline:base_phases ~current () in
  Alcotest.(check bool) "missing phase fails" false r.Regress.ok;
  Alcotest.(check bool) "flagged as missing" true
    (List.exists
       (fun (v : Regress.verdict) ->
         v.Regress.check = Regress.Missing && v.Regress.phase = "store")
       r.Regress.verdicts)

let test_gate_tolerance_from_noise () =
  Alcotest.(check (float 1e-9)) "floor at 50%" 0.5 (Regress.time_tolerance 0.0);
  Alcotest.(check (float 1e-9)) "6x the measured cv" 1.2 (Regress.time_tolerance 0.2);
  Alcotest.(check (float 1e-9)) "clamped for jittery probes" 2.0
    (Regress.time_tolerance 10.0);
  (* A noisy machine widens the gate: the 2.2x phase that fails at cv 0
     passes at cv 0.25. *)
  let current =
    List.map
      (fun (p : Regress.phase) ->
        if p.Regress.name = "kernels" then { p with Regress.secs = 2.2 } else p)
      base_phases
  in
  let strict = Regress.compare_runs ~noise_cv:0.0 ~baseline:base_phases ~current () in
  let loose = Regress.compare_runs ~noise_cv:0.25 ~baseline:base_phases ~current () in
  Alcotest.(check bool) "fails under a quiet probe" false strict.Regress.ok;
  Alcotest.(check bool) "passes under a noisy probe" true loose.Regress.ok

let test_gate_phases_of_json () =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "webdep-bench/6");
        ( "phases_s",
          Json.Obj [ ("a", Json.Float 1.5); ("b", Json.Int 2) ] );
        ("phases_minor_words", Json.Obj [ ("b", Json.Int 7); ("a", Json.Float 1e6) ]);
      ]
  in
  match Regress.phases_of_json doc with
  | [ a; b ] ->
      Alcotest.(check string) "first phase" "a" a.Regress.name;
      Alcotest.(check (float 1e-9)) "seconds" 1.5 a.Regress.secs;
      Alcotest.(check (float 1e-9)) "minor words" 1e6 a.Regress.minor_words;
      Alcotest.(check (float 1e-9)) "int seconds" 2.0 b.Regress.secs;
      Alcotest.(check (float 1e-9)) "words matched by name" 7.0 b.Regress.minor_words
  | l -> Alcotest.failf "expected 2 phases, got %d" (List.length l)

(* A value the gate cannot read is refused by name, never read as 0:
   a 0 falls under both gate floors, so the phase would go unchecked. *)
let test_gate_phases_refused () =
  let refused what fields expect =
    match Regress.phases_of_json (Json.Obj fields) with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Regress.Bad_phases msg ->
        Alcotest.(check string) what expect msg
  in
  let secs = ("phases_s", Json.Obj [ ("table1", Json.Float 2.4) ]) in
  let words = ("phases_minor_words", Json.Obj [ ("table1", Json.Int 5) ]) in
  refused "no phases_s" [ words ] "no phases_s object";
  refused "phases_s a list" [ ("phases_s", Json.List []); words ] "phases_s is not an object";
  refused "no phases_minor_words" [ secs ] "no phases_minor_words object";
  refused "phases_minor_words a number" [ secs; ("phases_minor_words", Json.Int 3) ]
    "phases_minor_words is not an object";
  refused "seconds a string"
    [ ("phases_s", Json.Obj [ ("table1", Json.String "2.4") ]); words ]
    "phase table1: phases_s value is not a number";
  refused "words null"
    [ secs; ("phases_minor_words", Json.Obj [ ("table1", Json.Null) ]) ]
    "phase table1: phases_minor_words value is not a number";
  refused "no words for a phase"
    [ secs; ("phases_minor_words", Json.Obj [ ("table2", Json.Int 5) ]) ]
    "phase table1: no phases_minor_words entry"

(* Flipped, truncated or inserted bytes in a valid bench document give
   phases, [Parse_error] or [Bad_phases], never another exception. *)
let qcheck_phases_mutation =
  let doc names =
    let entries f = Json.Obj (List.mapi (fun i n -> (n, f i)) names) in
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.String "webdep-bench/10");
           ("phases_s", entries (fun i -> Json.Float (0.125 *. float_of_int i)));
           ("phases_minor_words", entries (fun i -> Json.Int (1000 * i)));
         ])
  in
  QCheck.Test.make ~count:2000 ~name:"mutated bench documents raise only typed errors"
    QCheck.(
      make
        ~print:(fun (names, (kind, i, c)) ->
          Printf.sprintf "%s %d %C of %s" kind i c (doc names))
        Gen.(
          pair
            (list_size (int_range 1 4) (string_size ~gen:(char_range 'a' 'e') (int_range 1 3)))
            (triple (oneofl [ "flip"; "truncate"; "insert" ]) nat char)))
    (fun (names, (kind, i, c)) ->
      let s = doc names in
      let n = String.length s in
      let at = i mod (n + 1) in
      let mutant =
        match kind with
        | "flip" -> String.mapi (fun j ch -> if j = i mod n then c else ch) s
        | "truncate" -> String.sub s 0 at
        | _ -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
      in
      match Regress.phases_of_json (Json.parse mutant) with
      | _ -> true
      | exception (Json.Parse_error _ | Regress.Bad_phases _) -> true)

let () =
  Alcotest.run "webdep_prof"
    [
      ( "sinks under domains",
        [
          Alcotest.test_case "trace 4-domain hammer" `Quick test_trace_multi_domain_hammer;
          Alcotest.test_case "exception depth balanced" `Quick
            test_exception_depth_balanced_across_domains;
        ] );
      ( "profile",
        [
          Alcotest.test_case "self vs cumulative" `Quick test_aggregate_self_vs_cumulative;
          Alcotest.test_case "loaded-trace order" `Quick test_aggregate_loaded_trace_order;
        ] );
      ( "trace",
        [
          Alcotest.test_case "round trip" `Quick test_trace_roundtrip;
          Alcotest.test_case "document structure" `Quick test_trace_document_structure;
          Alcotest.test_case "sink flush" `Quick test_trace_sink_flush;
          Alcotest.test_case "bad trace files refused" `Quick test_trace_refusals;
          QCheck_alcotest.to_alcotest qcheck_trace_mutation;
        ] );
      ( "regress",
        [
          Alcotest.test_case "identical ok" `Quick test_gate_identical_ok;
          Alcotest.test_case "uniform slowdown ok" `Quick test_gate_uniform_slowdown_ok;
          Alcotest.test_case "single-phase regression" `Quick
            test_gate_single_phase_regression;
          Alcotest.test_case "tiny phase never alarms" `Quick
            test_gate_tiny_phase_never_alarms;
          Alcotest.test_case "alloc regression" `Quick test_gate_alloc_regression;
          Alcotest.test_case "missing phase" `Quick test_gate_missing_phase;
          Alcotest.test_case "tolerance from noise" `Quick test_gate_tolerance_from_noise;
          Alcotest.test_case "phases of json" `Quick test_gate_phases_of_json;
          Alcotest.test_case "bad phases refused by name" `Quick test_gate_phases_refused;
          QCheck_alcotest.to_alcotest qcheck_phases_mutation;
        ] );
    ]
