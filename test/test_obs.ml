(* Unit tests for webdep_obs: span nesting, counter/histogram math
   (including empty-histogram edge cases), the JSON printer/parser, the
   registry snapshot round-trip and the jsonl trace sink.

   The registry is process-global; tests use distinct metric names so
   they stay independent of execution order. *)

module Metrics = Webdep_obs.Metrics
module Span = Webdep_obs.Span
module Sink = Webdep_obs.Sink
module Json = Webdep_json
module Registry = Webdep_obs.Registry

let test_counter_math () =
  let c = Metrics.counter "test.counter.basic" in
  Alcotest.(check int) "fresh counter is zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr c;
  Alcotest.(check int) "two increments" 2 (Metrics.value c);
  Metrics.incr ~by:40 c;
  Alcotest.(check int) "increment by" 42 (Metrics.value c);
  (* Memoized by name: a second lookup is the same counter. *)
  Metrics.incr (Metrics.counter "test.counter.basic");
  Alcotest.(check int) "same counter via name" 43 (Metrics.value c)

let test_empty_histogram () =
  let h = Metrics.histogram "test.histo.empty" in
  Alcotest.(check int) "count" 0 (Metrics.count h);
  Alcotest.(check (float 0.0)) "sum" 0.0 (Metrics.sum h);
  Alcotest.(check (float 0.0)) "mean of empty is 0" 0.0 (Metrics.mean h);
  Alcotest.(check (float 0.0)) "stddev of empty is 0" 0.0 (Metrics.stddev h);
  Alcotest.(check (option (float 0.0))) "no min" None (Metrics.min_value h);
  Alcotest.(check (option (float 0.0))) "no max" None (Metrics.max_value h);
  Alcotest.(check (option (float 0.0))) "no quantile" None (Metrics.quantile h 0.5);
  Alcotest.(check int) "no buckets" 0 (List.length (Metrics.buckets h))

let test_histogram_math () =
  let h = Metrics.histogram "test.histo.math" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Metrics.count h);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (Metrics.sum h);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Metrics.mean h);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) (Metrics.stddev h);
  Alcotest.(check (option (float 1e-9))) "min" (Some 1.0) (Metrics.min_value h);
  Alcotest.(check (option (float 1e-9))) "max" (Some 4.0) (Metrics.max_value h);
  (* Bucket counts preserve the total. *)
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 (Metrics.buckets h) in
  Alcotest.(check int) "buckets cover all observations" 4 total

(* The observe-only fast path must be indistinguishable from direct
   observation once flushed: same count, moments, extremes, buckets and
   quantiles.  Before the flush the shared histogram sees nothing. *)
let test_histogram_local_fast_path () =
  let samples = [ 3e-6; 1.5e-4; 0.0021; 0.9; 0.0021; 7.0; 4e-5 ] in
  let direct = Metrics.histogram "test.histo.local.direct" in
  List.iter (Metrics.observe direct) samples;
  let shared = Metrics.histogram "test.histo.local.shared" in
  let local = Metrics.Local.create shared in
  List.iter (Metrics.Local.observe local) samples;
  Alcotest.(check int) "nothing shared before flush" 0 (Metrics.count shared);
  Alcotest.(check int) "pending" (List.length samples) (Metrics.Local.pending local);
  Metrics.Local.flush local;
  Alcotest.(check int) "pending cleared" 0 (Metrics.Local.pending local);
  Alcotest.(check int) "count" (Metrics.count direct) (Metrics.count shared);
  Alcotest.(check (float 1e-12)) "sum" (Metrics.sum direct) (Metrics.sum shared);
  Alcotest.(check (float 1e-12)) "stddev" (Metrics.stddev direct) (Metrics.stddev shared);
  Alcotest.(check (option (float 1e-12))) "min" (Metrics.min_value direct)
    (Metrics.min_value shared);
  Alcotest.(check (option (float 1e-12))) "max" (Metrics.max_value direct)
    (Metrics.max_value shared);
  List.iter
    (fun q ->
      Alcotest.(check (option (float 1e-12)))
        (Printf.sprintf "q%.3f" q)
        (Metrics.quantile direct q) (Metrics.quantile shared q))
    [ 0.5; 0.9; 0.99; 0.999 ];
  Alcotest.(check int) "bucket shapes" (List.length (Metrics.buckets direct))
    (List.length (Metrics.buckets shared));
  (* A second flush with nothing pending is a no-op. *)
  Metrics.Local.flush local;
  Alcotest.(check int) "idempotent flush" (Metrics.count direct) (Metrics.count shared)

let test_histogram_quantile () =
  let h = Metrics.histogram "test.histo.quantile" in
  for _ = 1 to 90 do Metrics.observe h 0.0005 done;
  for _ = 1 to 10 do Metrics.observe h 0.9 done;
  (* Rank 50 sits 50/90 of the way through the (1e-4, 1e-3] bucket:
     1e-4 + (50/90)(1e-3 - 1e-4) = 6e-4 — interpolated, not the old
     bucket-upper-bound 1e-3 overestimate. *)
  (match Metrics.quantile h 0.5 with
  | Some q -> Alcotest.(check (float 1e-9)) "p50 interpolates inside its bucket" 6e-4 q
  | None -> Alcotest.fail "p50 missing");
  (match Metrics.quantile h 0.5 with
  | Some q -> Alcotest.(check bool) "p50 below the bucket upper bound" true (q < 1e-3)
  | None -> ());
  match Metrics.quantile h 0.99 with
  | Some q -> Alcotest.(check (float 1e-9)) "p99 clamps to the max seen" 0.9 q
  | None -> Alcotest.fail "p99 missing"

let test_histogram_quantile_single_value () =
  let h = Metrics.histogram "test.histo.quantile_single" in
  for _ = 1 to 5 do Metrics.observe h 0.25 done;
  List.iter
    (fun q ->
      match Metrics.quantile h q with
      | Some v ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "q=%.2f of a single-valued histogram is exact" q)
            0.25 v
      | None -> Alcotest.fail "quantile missing")
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_histogram_bucket_sums () =
  let h = Metrics.histogram "test.histo.bucket_sums" in
  List.iter (Metrics.observe h) [ 0.0005; 0.0007; 0.9; 3.0 ];
  let bs = Metrics.buckets_with_sums h in
  let total_count = List.fold_left (fun acc (_, k, _) -> acc + k) 0 bs in
  let total_sum = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 bs in
  Alcotest.(check int) "bucket counts cover all observations" 4 total_count;
  Alcotest.(check (float 1e-9)) "bucket sums add up to the total sum"
    (Metrics.sum h) total_sum;
  (* The two sub-millisecond values share a bucket; its sum is theirs. *)
  match List.find_opt (fun (le, _, _) -> le = Some 1e-3) bs with
  | Some (_, k, s) ->
      Alcotest.(check int) "shared bucket count" 2 k;
      Alcotest.(check (float 1e-9)) "shared bucket sum" 0.0012 s
  | None -> Alcotest.fail "expected a (1e-4, 1e-3] bucket"

let test_histogram_merge () =
  let a = Metrics.histogram "test.histo.merge_a" in
  let b = Metrics.histogram "test.histo.merge_b" in
  List.iter (Metrics.observe a) [ 0.001; 0.002 ];
  List.iter (Metrics.observe b) [ 0.9; 1.5; 4.0 ];
  Metrics.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 5 (Metrics.count a);
  Alcotest.(check (float 1e-9)) "merged sum" 6.403 (Metrics.sum a);
  Alcotest.(check (option (float 1e-9))) "merged min" (Some 0.001) (Metrics.min_value a);
  Alcotest.(check (option (float 1e-9))) "merged max" (Some 4.0) (Metrics.max_value a);
  (match Metrics.quantile a 1.0 with
  | Some q -> Alcotest.(check (float 1e-9)) "merged q1 is the global max" 4.0 q
  | None -> Alcotest.fail "quantile missing");
  (* Merging an empty histogram must not disturb min/max. *)
  let empty = Metrics.histogram "test.histo.merge_empty" in
  Metrics.merge_into ~into:a empty;
  Alcotest.(check (option (float 1e-9))) "min survives empty merge" (Some 0.001)
    (Metrics.min_value a);
  (* Distinct bounds are a programming error, not a silent skew. *)
  let other = Metrics.histogram ~bounds:[| 1.0; 2.0 |] "test.histo.merge_bounds" in
  match Metrics.merge_into ~into:a other with
  | () -> Alcotest.fail "expected Invalid_argument for mismatched bounds"
  | exception Invalid_argument _ -> ()

let test_histogram_overflow_bucket () =
  let h = Metrics.histogram "test.histo.overflow" in
  Metrics.observe h 1e9;
  (* Beyond the last bound: lands in the unbounded overflow bucket. *)
  (match Metrics.buckets h with
  | [ (None, 1) ] -> ()
  | _ -> Alcotest.fail "expected one overflow bucket");
  match Metrics.quantile h 1.0 with
  | Some q -> Alcotest.(check (float 1.0)) "overflow quantile is max seen" 1e9 q
  | None -> Alcotest.fail "quantile missing"

let test_span_nesting () =
  let events = ref [] in
  let recording = { Sink.emit = (fun ev -> events := ev :: !events); flush = ignore } in
  Sink.with_sink recording (fun () ->
      Span.with_ ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
          Span.with_ ~name:"inner" (fun () -> ());
          Span.with_ ~name:"inner" (fun () -> ())));
  (* Children close before the parent; depth reflects nesting. *)
  match List.rev !events with
  | [ i1; i2; o ] ->
      Alcotest.(check string) "first inner" "inner" i1.Sink.name;
      Alcotest.(check int) "inner depth" 1 i1.Sink.depth;
      Alcotest.(check int) "inner depth" 1 i2.Sink.depth;
      Alcotest.(check string) "outer last" "outer" o.Sink.name;
      Alcotest.(check int) "outer depth" 0 o.Sink.depth;
      Alcotest.(check bool) "attrs carried" true (List.mem ("k", "v") o.Sink.attrs);
      Alcotest.(check bool) "outer spans the inners" true
        (o.Sink.duration_s >= i1.Sink.duration_s)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_span_histogram_and_result () =
  let runs = 3 in
  for i = 1 to runs do
    let v = Span.with_ ~name:"test_span_histo" (fun () -> i * 2) in
    Alcotest.(check int) "span returns the body's value" (i * 2) v
  done;
  let h = Metrics.histogram "span.test_span_histo" in
  Alcotest.(check int) "one observation per run" runs (Metrics.count h);
  Alcotest.(check bool) "durations are non-negative" true (Metrics.sum h >= 0.0)

let test_span_gc_and_lane () =
  let events = ref [] in
  let recording = { Sink.emit = (fun ev -> events := ev :: !events); flush = ignore } in
  Sink.with_sink recording (fun () ->
      Span.with_ ~name:"alloc_span" (fun () ->
          for _ = 1 to 1000 do
            ignore (Sys.opaque_identity (ref 0))
          done));
  match !events with
  | [ ev ] ->
      Alcotest.(check bool) "minor allocation recorded" true
        (ev.Sink.gc.Sink.minor_words > 0.0);
      Alcotest.(check bool) "promoted words within minor words" true
        (ev.Sink.gc.Sink.promoted_words <= ev.Sink.gc.Sink.minor_words);
      Alcotest.(check bool) "lane is non-negative" true (ev.Sink.lane >= 0)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_exception_restores_depth () =
  let before = ref (-1) and after = ref (-1) in
  let probe = { Sink.emit = (fun ev -> after := ev.Sink.depth); flush = ignore } in
  Sink.with_sink probe (fun () ->
      (try
         Span.with_ ~name:"outer_exn" (fun () ->
             before := 1;
             Span.with_ ~name:"raiser" (fun () -> failwith "boom"))
       with Failure _ -> ());
      (* The outer span closed at depth 0: nesting state was restored on
         the exception path. *)
      Alcotest.(check int) "outer closed at depth 0" 0 !after;
      Alcotest.(check int) "body ran" 1 !before)

let test_json_roundtrip_values () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Float 2.0;
      Json.Float 0.123456789012345;
      Json.Float 1.7976931348623157e308;
      Json.String "plain";
      Json.String "esc \"quotes\" \\ back\n tab\t ctrl\001";
      Json.List [ Json.Int 1; Json.String "two"; Json.List []; Json.Obj [] ];
      Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Null ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.parse s with
      | parsed ->
          if parsed <> v then Alcotest.failf "round trip failed for %s" s
      | exception Json.Parse_error msg -> Alcotest.failf "parse error %s for %s" msg s)
    samples

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse failure for %S" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated"; "[1] trailing";
      {|{"q":"\uZZZZ"}|}; {|"\u-001"|}; {|"\u1_2_"|}; {|"\u12"|}; {|"\u+123"|} ]

(* Any tree the printer emits parses back to itself: floats (finite,
   integral ones included at every magnitude) and strings of arbitrary
   bytes alike. *)
let gen_json =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_range 0 12) in
  let finite =
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        map float_of_int (int_range (-1 lsl 57) (1 lsl 57));
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite;
        map (fun s -> Json.String s) bytes;
      ]
  in
  int_bound 3
  >>= fix (fun self depth ->
          if depth = 0 then leaf
          else
            let child = self (depth - 1) in
            oneof
              [
                leaf;
                map (fun l -> Json.List l) (list_size (int_range 0 4) child);
                map (fun l -> Json.Obj l) (list_size (int_range 0 4) (pair bytes child));
              ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"parse (to_string v) = v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = v)

(* Flipped, truncated or inserted bytes give a value or [Parse_error],
   never another exception. *)
let qcheck_json_mutation =
  QCheck.Test.make ~count:2000 ~name:"mutated documents raise only Parse_error"
    QCheck.(
      make
        ~print:(fun (v, (kind, i, c)) ->
          Printf.sprintf "%s %d %C of %s" kind i c (Json.to_string v))
        Gen.(pair gen_json (triple (oneofl [ "flip"; "truncate"; "insert" ]) nat char)))
    (fun (v, (kind, i, c)) ->
      let s = Json.to_string v in
      let n = String.length s in
      let at = i mod (n + 1) in
      let mutant =
        match kind with
        | "flip" ->
            String.mapi (fun j ch -> if j = i mod n then c else ch) s
        | "truncate" -> String.sub s 0 at
        | _ -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
      in
      match Json.parse mutant with _ -> true | exception Json.Parse_error _ -> true)

let test_registry_snapshot_roundtrip () =
  Metrics.incr ~by:7 (Metrics.counter "test.snapshot.counter");
  let h = Metrics.histogram "test.snapshot.histo" in
  List.iter (Metrics.observe h) [ 0.002; 0.004; 1.5 ];
  Span.with_ ~name:"test_snapshot_span" (fun () -> ());
  let snap = Registry.snapshot () in
  let reparsed = Json.parse (Registry.dump_json ()) in
  Alcotest.(check bool) "snapshot JSON round-trips" true (reparsed = snap);
  (* The snapshot exposes the three sections with our entries in place. *)
  let counters = Option.get (Json.member "counters" snap) in
  Alcotest.(check bool) "counter present" true
    (Json.member "test.snapshot.counter" counters = Some (Json.Int 7));
  let histos = Option.get (Json.member "histograms" snap) in
  (match Json.member "test.snapshot.histo" histos with
  | Some histo ->
      Alcotest.(check bool) "count serialized" true
        (Json.member "count" histo = Some (Json.Int 3))
  | None -> Alcotest.fail "histogram missing from snapshot");
  let spans = Option.get (Json.member "spans" snap) in
  Alcotest.(check bool) "span histograms live under spans, prefix stripped" true
    (Json.member "test_snapshot_span" spans <> None)

let test_jsonl_sink () =
  let path = Filename.temp_file "webdep_obs" ".jsonl" in
  let sink = Sink.jsonl path in
  Sink.with_sink sink (fun () ->
      Span.with_ ~name:"jsonl_outer" ~attrs:[ ("cc", "US") ] (fun () ->
          Span.with_ ~name:"jsonl_inner" (fun () -> ())));
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "two span lines" 2 (List.length lines);
  let parsed = List.map Json.parse lines in
  (match parsed with
  | [ inner; outer ] ->
      Alcotest.(check bool) "inner first" true
        (Json.member "name" inner = Some (Json.String "jsonl_inner"));
      Alcotest.(check bool) "outer attrs survive" true
        (match Json.member "attrs" outer with
        | Some attrs -> Json.member "cc" attrs = Some (Json.String "US")
        | None -> false)
  | _ -> Alcotest.fail "expected two events");
  Sys.remove path

let test_reset_keeps_references_live () =
  let c = Metrics.counter "test.reset.counter" in
  let h = Metrics.histogram "test.reset.histo" in
  Metrics.incr ~by:5 c;
  Metrics.observe h 1.0;
  Registry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.count h);
  (* The original references still feed the registry after a reset. *)
  Metrics.incr c;
  Metrics.observe h 2.0;
  Alcotest.(check int) "counter live" 1 (Metrics.value c);
  Alcotest.(check int) "histogram live" 1 (Metrics.count h);
  Alcotest.(check (option (float 1e-9))) "min restarts" (Some 2.0) (Metrics.min_value h)

let () =
  Alcotest.run "webdep_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter math" `Quick test_counter_math;
          Alcotest.test_case "empty histogram" `Quick test_empty_histogram;
          Alcotest.test_case "histogram math" `Quick test_histogram_math;
          Alcotest.test_case "local fast path" `Quick test_histogram_local_fast_path;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "single-valued quantile" `Quick
            test_histogram_quantile_single_value;
          Alcotest.test_case "bucket sums" `Quick test_histogram_bucket_sums;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "overflow bucket" `Quick test_histogram_overflow_bucket;
          Alcotest.test_case "reset keeps references" `Quick test_reset_keeps_references_live;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "histogram and result" `Quick test_span_histogram_and_result;
          Alcotest.test_case "gc delta and lane" `Quick test_span_gc_and_lane;
          Alcotest.test_case "exception restores depth" `Quick test_span_exception_restores_depth;
        ] );
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip_values;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_mutation;
          Alcotest.test_case "snapshot round-trip" `Quick test_registry_snapshot_roundtrip;
          Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
        ] );
    ]
