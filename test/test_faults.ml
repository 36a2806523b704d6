(* webdep_faults: deterministic fault plans, retry/backoff,
   coverage gating and checkpoint/resume.  The invariants here back the
   robustness acceptance criteria: plans are pure (byte-identical sweeps
   at any job count), transient failures are never memoized, and an
   interrupted sweep resumed from its checkpoint reproduces the
   uninterrupted dataset exactly. *)

module Faults = Webdep_faults.Fault_plan
module Retry = Webdep_faults.Retry
module Degrade = Webdep_faults.Degrade
module Checkpoint = Webdep_faults.Checkpoint
module Zone_db = Webdep_dnssim.Zone_db
module Resolver = Webdep_dnssim.Resolver
module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module Ipv4 = Webdep_netsim.Ipv4

let addr s = Option.get (Ipv4.addr_of_string s)

(* --- fault plan ---------------------------------------------------------- *)

let test_plan_deterministic () =
  let p1 = Faults.make ~rate:0.2 ~seed:42 () in
  let p2 = Faults.make ~rate:0.2 ~seed:42 () in
  for i = 0 to 199 do
    let qname = Printf.sprintf "site%d.example" i in
    for attempt = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "same verdict %s@%d" qname attempt)
        true
        (Faults.dns_fault p1 ~vantage:"US" ~qname ~attempt
        = Faults.dns_fault p2 ~vantage:"US" ~qname ~attempt)
    done
  done

let test_plan_pure () =
  (* Verdicts must not depend on what was asked before — purity is what
     makes a faulted sweep schedule-independent. *)
  let p = Faults.make ~rate:0.3 ~seed:9 () in
  let before = Faults.dns_fault p ~vantage:"US" ~qname:"probe.example" ~attempt:0 in
  for i = 0 to 499 do
    ignore (Faults.dns_fault p ~vantage:"DE" ~qname:(string_of_int i) ~attempt:0)
  done;
  let after = Faults.dns_fault p ~vantage:"US" ~qname:"probe.example" ~attempt:0 in
  Alcotest.(check bool) "order-independent" true (before = after)

let test_plan_seeds_differ () =
  let p1 = Faults.make ~rate:0.5 ~seed:1 () in
  let p2 = Faults.make ~rate:0.5 ~seed:2 () in
  let differs = ref false in
  for i = 0 to 199 do
    let qname = Printf.sprintf "s%d.example" i in
    if
      Faults.dns_faulty p1 ~vantage:"US" ~qname
      <> Faults.dns_faulty p2 ~vantage:"US" ~qname
    then differs := true
  done;
  Alcotest.(check bool) "different seeds, different plans" true !differs

let test_plan_rate_bounds () =
  let p = Faults.make ~rate:0.1 ~seed:3 () in
  let faulty = ref 0 in
  let n = 2000 in
  for i = 0 to n - 1 do
    if Faults.dns_faulty p ~vantage:"US" ~qname:(Printf.sprintf "d%d.x" i) then
      incr faulty
  done;
  let observed = float_of_int !faulty /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "observed rate %.3f within [0.05, 0.15]" observed)
    true
    (observed > 0.05 && observed < 0.15)

let test_plan_zero_rate_never_fires () =
  let p = Faults.make ~rate:0.0 ~seed:7 () in
  Alcotest.(check bool) "enabled" true (Faults.enabled p);
  for i = 0 to 499 do
    let qname = Printf.sprintf "z%d.example" i in
    Alcotest.(check bool) "no dns fault" true
      (Faults.dns_fault p ~vantage:"US" ~qname ~attempt:0 = Faults.No_fault);
    Alcotest.(check bool) "no tls fault" true
      (Faults.tls_fault p ~sni:qname ~attempt:0 = Faults.No_fault)
  done

let test_transient_faults_recover () =
  (* With no permanent faults, every faulty key must clear within
     recover_after attempts. *)
  let p = Faults.make ~rate:0.5 ~recover_after:3 ~permanent_fraction:0.0 ~seed:5 () in
  let recovered = ref 0 and faulty = ref 0 in
  for i = 0 to 299 do
    let qname = Printf.sprintf "t%d.example" i in
    if Faults.dns_faulty p ~vantage:"US" ~qname then begin
      incr faulty;
      if Faults.dns_fault p ~vantage:"US" ~qname ~attempt:3 = Faults.No_fault then
        incr recovered
    end
  done;
  Alcotest.(check bool) "some keys faulty" true (!faulty > 50);
  Alcotest.(check int) "all transient faults recover by attempt 3" !faulty !recovered

let test_permanent_faults_never_recover () =
  let p = Faults.make ~rate:0.4 ~permanent_fraction:1.0 ~seed:11 () in
  for i = 0 to 199 do
    let qname = Printf.sprintf "p%d.example" i in
    if Faults.dns_faulty p ~vantage:"US" ~qname then
      Alcotest.(check bool) "still faulty at attempt 50" true
        (Faults.dns_fault p ~vantage:"US" ~qname ~attempt:50 <> Faults.No_fault)
  done

(* --- retry --------------------------------------------------------------- *)

let test_retry_budget_exhaustion () =
  let calls = ref 0 in
  let policy = Retry.of_max_retries 3 in
  let r =
    Retry.run policy ~key:"always-fails" ~retryable:(fun () -> true) (fun ~attempt ->
        incr calls;
        Alcotest.(check int) "attempt number" (!calls - 1) attempt;
        Error ())
  in
  Alcotest.(check bool) "still an error" true (r = Error ());
  Alcotest.(check int) "max_attempts calls" policy.Retry.max_attempts !calls

let test_retry_non_retryable_single_attempt () =
  let calls = ref 0 in
  let r =
    Retry.run (Retry.of_max_retries 5) ~key:"definitive" ~retryable:(fun () -> false)
      (fun ~attempt:_ ->
        incr calls;
        Error ())
  in
  Alcotest.(check bool) "error" true (r = Error ());
  Alcotest.(check int) "one call only" 1 !calls

let test_retry_recovers () =
  let r =
    Retry.run (Retry.of_max_retries 3) ~key:"flaky" ~retryable:(fun () -> true)
      (fun ~attempt -> if attempt >= 2 then Ok "answer" else Error ())
  in
  Alcotest.(check bool) "recovered" true (r = Ok "answer")

let test_retry_simulated_budget_cuts_off () =
  (* A tiny simulated-time budget stops retrying long before the attempt
     cap. *)
  let calls = ref 0 in
  let policy =
    { (Retry.of_max_retries 50) with Retry.base_backoff_ms = 100.0; budget_ms = 250.0 }
  in
  let r =
    Retry.run policy ~key:"slow" ~retryable:(fun () -> true) (fun ~attempt:_ ->
        incr calls;
        Error ())
  in
  Alcotest.(check bool) "error" true (r = Error ());
  Alcotest.(check bool)
    (Printf.sprintf "budget stopped after %d calls" !calls)
    true (!calls < 6)

let test_backoff_deterministic_and_growing () =
  let policy = Retry.default in
  let d1 = Retry.backoff_ms policy ~key:"k" ~attempt:1 in
  let d1' = Retry.backoff_ms policy ~key:"k" ~attempt:1 in
  let d3 = Retry.backoff_ms policy ~key:"k" ~attempt:3 in
  Alcotest.(check (float 0.0)) "deterministic" d1 d1';
  Alcotest.(check bool) "exponential growth" true (d3 > 2.0 *. d1);
  Alcotest.(check bool) "jitter differs by key" true
    (Retry.backoff_ms policy ~key:"other" ~attempt:1 <> d1)

(* --- cache never memoizes transient failures ----------------------------- *)

let test_resolver_does_not_cache_injected_failure () =
  (* A cached SERVFAIL must not mask a later successful retry: resolve a
     transiently-faulty domain once without retries (fails), then again
     with retries through the same cache (must recover). *)
  let db = Zone_db.create () in
  let plan = Faults.make ~rate:0.4 ~recover_after:2 ~permanent_fraction:0.0 ~seed:21 () in
  let faulty_domain =
    let rec find i =
      if i > 5000 then Alcotest.fail "no faulty domain found in 5000 draws"
      else
        let d = Printf.sprintf "site%d.example" i in
        if Faults.dns_faulty plan ~vantage:"US" ~qname:d then d else find (i + 1)
    in
    find 0
  in
  Zone_db.add_domain db ~domain:faulty_domain ~ns_hosts:[ "ns1.x.sim" ]
    ~a:(Zone_db.Static [ addr "10.0.0.1" ]);
  Zone_db.add_host db ~host:"ns1.x.sim" ~a:(Zone_db.Static [ addr "10.9.0.1" ]);
  let cache = Resolver.make_cache () in
  (match Resolver.resolve ~cache ~faults:plan db ~vantage:"US" faulty_domain with
  | Error e ->
      Alcotest.(check bool) "transient error" true (Resolver.retryable e)
  | Ok _ -> Alcotest.fail "attempt 0 must hit the injected fault");
  match
    Resolver.resolve ~cache ~faults:plan ~retry:(Retry.of_max_retries 4) db
      ~vantage:"US" faulty_domain
  with
  | Ok r ->
      Alcotest.(check (list string)) "recovered answer" [ "10.0.0.1" ]
        (List.map Ipv4.addr_to_string r.Resolver.a)
  | Error e ->
      Alcotest.fail
        ("retry must recover past the transient fault, got "
        ^ Resolver.error_message e)

(* --- pipeline: sweeps under faults --------------------------------------- *)

let sample = [ "US"; "RU"; "BR"; "DE" ]

let fault_opts ?(rate = 0.05) ?(threshold = 0.5) ?(retries = 3) ?permanent_fraction
    () =
  {
    Measure.plan = Faults.make ~rate ?permanent_fraction ~seed:7 ();
    retry = Retry.of_max_retries retries;
    coverage_threshold = threshold;
  }

let country_lists ds = List.map (fun cc -> D.country_exn ds cc) (D.countries ds)

let datasets_equal a b = country_lists a = country_lists b

(* A world is read-only after [World.create], so the sweep tests share
   one. *)
let world = lazy (World.create ~c:300 ~seed:2024 ())

let test_sweep_jobs_invariant_with_faults () =
  let world = Lazy.force world in
  let s1 =
    Measure.measure_sweep ~countries:sample ~jobs:1 ~faults:(fault_opts ()) world
  in
  let s4 =
    Measure.measure_sweep ~countries:sample ~jobs:4 ~faults:(fault_opts ()) world
  in
  Alcotest.(check bool) "datasets identical" true
    (datasets_equal s1.Measure.dataset s4.Measure.dataset);
  Alcotest.(check bool) "coverage identical" true
    (s1.Measure.coverage = s4.Measure.coverage)

let test_sweep_zero_rate_identical_to_legacy () =
  let world = Lazy.force world in
  let plain = Measure.measure_all ~countries:sample world in
  let zero =
    Measure.measure_sweep ~countries:sample
      ~faults:(fault_opts ~rate:0.0 ~threshold:0.9 ()) world
  in
  Alcotest.(check bool) "rate-0 plan changes nothing" true
    (datasets_equal plain zero.Measure.dataset);
  Alcotest.(check (list string)) "nothing withheld" [] zero.Measure.insufficient

let test_coverage_threshold_gates () =
  let world = Lazy.force world in
  (* Every resolution fails permanently and is never retried: coverage 0,
     so a 0.99 threshold must withhold every country... *)
  let brutal = fault_opts ~rate:1.0 ~threshold:0.99 ~retries:0 ~permanent_fraction:1.0 () in
  let sweep = Measure.measure_sweep ~countries:sample ~faults:brutal world in
  Alcotest.(check (list string)) "all withheld" sample sweep.Measure.insufficient;
  Alcotest.(check (list string)) "empty dataset" [] (D.countries sweep.Measure.dataset);
  List.iter
    (fun (c : Measure.country_coverage) ->
      Alcotest.(check (float 0.0)) ("ratio " ^ c.Measure.cc) 0.0 c.Measure.ratio)
    sweep.Measure.coverage;
  (* ...while a 0 threshold keeps them (degraded, not silently dropped). *)
  let keep_all = { brutal with Measure.coverage_threshold = 0.0 } in
  let sweep0 = Measure.measure_sweep ~countries:sample ~faults:keep_all world in
  Alcotest.(check (list string)) "none withheld" [] sweep0.Measure.insufficient;
  Alcotest.(check (list string)) "all kept" sample (D.countries sweep0.Measure.dataset)

let test_faulted_scores_stay_close () =
  (* §acceptance: 5% faults with retries must not visibly bias the
     centralization metric. *)
  let world = World.create ~c:500 ~seed:2024 () in
  let clean = Measure.measure_all ~countries:sample world in
  let faulted =
    (Measure.measure_sweep ~countries:sample ~faults:(fault_opts ~rate:0.05 ()) world)
      .Measure.dataset
  in
  List.iter
    (fun cc ->
      let s_clean = Webdep.Metrics.centralization clean Webdep.Dataset.Hosting cc in
      let s_faulted = Webdep.Metrics.centralization faulted Webdep.Dataset.Hosting cc in
      Alcotest.(check bool)
        (Printf.sprintf "%s drift %.4f within 0.02" cc (abs_float (s_clean -. s_faulted)))
        true
        (abs_float (s_clean -. s_faulted) < 0.02))
    sample

(* --- checkpoint ---------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "webdep_cp" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let all_resumed (s : Measure.sweep) =
  List.length s.Measure.coverage = List.length sample
  && List.for_all (fun (c : Measure.country_coverage) -> c.Measure.resumed) s.Measure.coverage

let none_resumed (s : Measure.sweep) =
  List.for_all (fun (c : Measure.country_coverage) -> not c.Measure.resumed) s.Measure.coverage

let test_checkpoint_roundtrip () =
  let world = Lazy.force world in
  (with_temp_file @@ fun path ->
   let faults = fault_opts () in
   let direct = Measure.measure_sweep ~countries:sample ~faults world in
   let checkpointed =
     Measure.measure_sweep ~countries:sample ~faults ~checkpoint:path world
   in
   Alcotest.(check bool) "checkpointing changes nothing" true
     (datasets_equal direct.Measure.dataset checkpointed.Measure.dataset);
   (* Resume from the complete file: every country short-circuits, and the
      dataset round-trips through the site codec exactly. *)
   let resumed = Measure.measure_sweep ~countries:sample ~faults ~checkpoint:path world in
   Alcotest.(check bool) "full resume identical" true
     (datasets_equal direct.Measure.dataset resumed.Measure.dataset);
   Alcotest.(check bool) "all countries resumed" true (all_resumed resumed));
  (* Fault-free, as a re-run of a finished sweep reuses it: the file is
     written at one job count and resumed at the other, and both sweeps
     equal [measure_all]. *)
  let cold = Measure.measure_all ~countries:sample world in
  List.iter
    (fun jobs ->
      with_temp_file @@ fun path ->
      let checkpointed = Measure.measure_sweep ~countries:sample ~jobs ~checkpoint:path world in
      let resumed =
        Measure.measure_sweep ~countries:sample ~jobs:(3 - jobs) ~checkpoint:path world
      in
      let at what = Printf.sprintf "%s (written at --jobs %d)" what jobs in
      Alcotest.(check bool) (at "checkpointed sweep = measure_all") true
        (datasets_equal cold checkpointed.Measure.dataset);
      Alcotest.(check bool) (at "first sweep resumed nothing") true
        (none_resumed checkpointed);
      Alcotest.(check bool) (at "resumed sweep = measure_all") true
        (datasets_equal cold resumed.Measure.dataset);
      Alcotest.(check string) (at "scores CSV byte-identical")
        (Webdep.Export.scores_csv cold Hosting)
        (Webdep.Export.scores_csv resumed.Measure.dataset Hosting);
      Alcotest.(check bool) (at "every country resumed") true (all_resumed resumed))
    [ 1; 2 ]

(* The sweeps of both epochs append to one file: the 2025 sweep keeps
   the 2023 shards instead of discarding them, a re-run of either epoch
   resumes every shard, and a wider country list resumes the overlap. *)
let test_checkpoint_epochs_share_one_file () =
  with_temp_file @@ fun path ->
  let world = Lazy.force world in
  let sweep ?(countries = sample) epoch =
    Measure.measure_sweep ~epoch ~countries ~checkpoint:path world
  in
  let first = List.map (fun e -> (e, sweep e)) [ World.May_2023; World.May_2025 ] in
  let s25 = List.assoc World.May_2025 first in
  Alcotest.(check bool) "the 2025 sweep resumed nothing" true (none_resumed s25);
  Alcotest.(check bool) "the 2025 sweep = measure_all" true
    (datasets_equal (Measure.measure_all ~epoch:World.May_2025 ~countries:sample world)
       s25.Measure.dataset);
  List.iter
    (fun (e, (s : Measure.sweep)) ->
      let again = sweep e in
      let at what = Printf.sprintf "%s re-run: %s" (World.epoch_name e) what in
      Alcotest.(check bool) (at "every shard resumed") true (all_resumed again);
      Alcotest.(check bool) (at "identical") true
        (datasets_equal s.Measure.dataset again.Measure.dataset))
    first;
  let wider = sample @ [ "JP" ] in
  List.iter
    (fun e ->
      let s = sweep ~countries:wider e in
      let at what = Printf.sprintf "%s over sample + JP: %s" (World.epoch_name e) what in
      Alcotest.(check (list (pair string bool))) (at "the overlap resumed")
        (List.map (fun cc -> (cc, cc <> "JP")) wider)
        (List.map (fun (cv : Measure.country_coverage) -> (cv.Measure.cc, cv.Measure.resumed))
           s.Measure.coverage);
      Alcotest.(check bool) (at "= measure_all") true
        (datasets_equal (Measure.measure_all ~epoch:e ~countries:wider world) s.Measure.dataset))
    [ World.May_2023; World.May_2025 ]

(* Golden bytes: the MD5 of the file a sweep writes for both epochs of
   three countries, clean and faulted.  A record holds the lane's world
   ids, so a change to the sweep's resolution path, the world's id
   numbering, the record codec or the header shows up here first.
   [~jobs:1] because records land in completion order. *)
let golden_checkpoint_digests =
  [ ("clean", "f48670eb0f1fcdba35911e0775eb3b59");
    ("faulted", "ca23f796825967f3c337b0745a8ee1dc") ]

let test_checkpoint_golden_bytes () =
  let world = World.create ~c:100 ~seed:2024 () in
  let runs = [ ("clean", None); ("faulted", Some (fault_opts ~rate:0.1 ~threshold:0.9 ())) ] in
  List.iter
    (fun (name, faults) ->
      with_temp_file @@ fun path ->
      List.iter
        (fun epoch ->
          ignore
            (Measure.measure_sweep ~epoch ~countries:[ "US"; "DE"; "BR" ] ~jobs:1 ?faults
               ~checkpoint:path world))
        [ World.May_2023; World.May_2025 ];
      Alcotest.(check string) name
        (List.assoc name golden_checkpoint_digests)
        (Digest.to_hex (Digest.file path)))
    runs

(* A checkpoint header without [world_derivation] is one written before
   [World.create] fixed the registration walk: its sites were geolocated
   in the order that world first met each provider, so the sweep must
   discard it rather than mix those verdicts with this world's. *)
let test_checkpoint_call_order_refused () =
  with_temp_file @@ fun path ->
  let world = Lazy.force world in
  let direct = Measure.measure_sweep ~countries:sample ~checkpoint:path world in
  let header, records =
    match
      Webdep_faults.Segment.fold ~path
        ~init:(fun h -> Some (h, []))
        ~f:(fun (h, acc) r -> Some (h, r :: acc))
    with
    | Webdep_faults.Segment.Folded { acc = h, rev; torn = false } -> (h, List.rev rev)
    | _ -> Alcotest.fail "checkpoint unreadable"
  in
  let fields =
    match Webdep_json.parse header with
    | Webdep_json.Obj fields -> fields
    | _ -> Alcotest.fail "checkpoint header is not an object"
  in
  let resume_with fields =
    Webdep_faults.Segment.write ~path ~header:(Webdep_json.to_string (Webdep_json.Obj fields))
      records;
    Measure.measure_sweep ~countries:sample ~checkpoint:path world
  in
  Alcotest.(check bool) "the same records under today's header resume" true
    (all_resumed (resume_with fields));
  let fresh = resume_with (List.filter (fun (k, _) -> k <> "world_derivation") fields) in
  Alcotest.(check bool) "the call-order header resumes nothing" true (none_resumed fresh);
  Alcotest.(check bool) "result matches a checkpoint-free run" true
    (datasets_equal direct.Measure.dataset fresh.Measure.dataset)

(* The header and records of a segment file. *)
let read_segment path =
  match
    Webdep_faults.Segment.fold ~path
      ~init:(fun h -> Some (h, []))
      ~f:(fun (h, acc) r -> Some (h, r :: acc))
  with
  | Webdep_faults.Segment.Folded { acc = h, rev; torn = false } -> (h, List.rev rev)
  | _ -> Alcotest.fail "checkpoint unreadable"

let header_fields header =
  match Webdep_json.parse header with
  | Webdep_json.Obj fields -> fields
  | _ -> Alcotest.fail "checkpoint header is not an object"

let m_resumed = Webdep_obs.Metrics.counter "checkpoint.countries_resumed"

(* Ids read from a checkpoint are checked against the world before the
   fold meets them.  A record whose CRC holds but whose ids this world
   does not number — in any column — or whose TLD is 0 counts as absent:
   nothing raises, the country is re-measured and not counted as
   resumed, and the sweep equals the cold one. *)
let test_checkpoint_foreign_ids_refused () =
  with_temp_file @@ fun path ->
  let world = Lazy.force world in
  let cold = Measure.measure_all ~countries:sample world in
  ignore (Measure.measure_sweep ~countries:sample ~checkpoint:path world);
  let pristine = Frames.read path in
  let header, _ = read_segment path in
  let meta = List.remove_assoc "schema" (header_fields header) in
  let cc = "RU" in
  let aux_or bits (w : D.world_ids) = w.D.w_aux.{0} <- w.D.w_aux.{0} lor bits in
  let spoilers =
    [
      ("hosting past the orgs", fun (w : D.world_ids) -> w.D.w_hosting.{0} <- Int32.max_int);
      ("negative dns", fun w -> w.D.w_dns.{0} <- -1l);
      ("ca past the owners", fun w -> w.D.w_ca.{0} <- 1_000_000l);
      ("tld 0", fun w -> w.D.w_tld.{0} <- 0l);
      ("tld past the labels", fun w -> w.D.w_tld.{0} <- Int32.max_int);
      ( "tld past w_other_tlds",
        fun w -> w.D.w_tld.{0} <- Int32.of_int (-1 - Array.length w.D.w_other_tlds) );
      ("hosting geo past the verdicts", aux_or 0xFFFFF);
      ("ns geo past the verdicts", aux_or (0xFFFFF lsl 20));
      ("language past the table", aux_or (0xFFFFF lsl 40));
      ("negative aux word", fun w -> w.D.w_aux.{0} <- min_int);
    ]
  in
  List.iter
    (fun (what, spoil) ->
      Frames.write path pristine;
      let cp = Checkpoint.open_ ~path ~meta in
      match Checkpoint.find cp ~epoch:"2023-05" ~fits:(fun _ -> true) cc with
      | None -> Alcotest.fail "the pristine record must decode"
      | Some e ->
          spoil e.Checkpoint.ids;
          (* A later record of a key replaces the earlier one. *)
          Checkpoint.record cp e;
          let before = Webdep_obs.Metrics.value m_resumed in
          let sw = Measure.measure_sweep ~countries:sample ~checkpoint:path world in
          Alcotest.(check (list (pair string bool)))
            (what ^ ": only the spoiled country re-measured")
            (List.map (fun c -> (c, c <> cc)) sample)
            (List.map (fun (cv : Measure.country_coverage) -> (cv.Measure.cc, cv.Measure.resumed))
               sw.Measure.coverage);
          Alcotest.(check int) (what ^ ": resumed count")
            (List.length sample - 1)
            (Webdep_obs.Metrics.value m_resumed - before);
          Alcotest.(check bool) (what ^ ": sweep = cold") true (sw.Measure.dataset = cold))
    spoilers

(* A file of the previous schema ("webdep-checkpoint/3": sites as
   strings, a "resolution" header field) under this sweep's fingerprint
   is discarded whole, never read as ids; the sweep that discards it
   writes the current schema, which the next sweep resumes. *)
let test_checkpoint_schema_3_discarded () =
  with_temp_file @@ fun path ->
  let world = Lazy.force world in
  let cold = Measure.measure_all ~countries:sample world in
  ignore (Measure.measure_sweep ~countries:[] ~checkpoint:path world);
  let header, _ = read_segment path in
  let fields =
    ("schema", Webdep_json.String "webdep-checkpoint/3")
    :: List.remove_assoc "schema" (header_fields header)
    @ [ ("resolution", Webdep_json.String "flat") ]
  in
  let record cc =
    let b = Buffer.create 4096 in
    let module S = Webdep_faults.Segment in
    S.add_str b "2023-05";
    S.add_str b cc;
    List.iter (S.add_u32 b) [ D.site_count cold cc; 0; 0 ];
    S.add_sites b (D.country_exn cold cc).D.sites;
    Buffer.contents b
  in
  Webdep_faults.Segment.write ~path
    ~header:(Webdep_json.to_string (Webdep_json.Obj fields))
    (List.map record sample);
  let before = Webdep_obs.Metrics.value m_resumed in
  let discarded = Measure.measure_sweep ~countries:sample ~checkpoint:path world in
  Alcotest.(check bool) "nothing resumed from a /3 file" true (none_resumed discarded);
  Alcotest.(check int) "resumed count" 0 (Webdep_obs.Metrics.value m_resumed - before);
  Alcotest.(check bool) "sweep = cold" true (datasets_equal cold discarded.Measure.dataset);
  let again = Measure.measure_sweep ~countries:sample ~checkpoint:path world in
  Alcotest.(check bool) "the rewritten file resumes every country" true (all_resumed again)

let test_checkpoint_interrupted_resume () =
  with_temp_file @@ fun path ->
  let world = Lazy.force world in
  let faults = fault_opts () in
  let full = Measure.measure_sweep ~countries:sample ~faults ~checkpoint:path world in
  (* Simulate a mid-sweep kill: keep the header and the first two
     completed shards, plus half of the third record. *)
  let full_bytes = Frames.read path in
  let b = Array.of_list (Frames.boundaries full_bytes) in
  Frames.write path (String.sub full_bytes 0 ((b.(3) + b.(4)) / 2));
  let resumed = Measure.measure_sweep ~countries:sample ~faults ~checkpoint:path world in
  Alcotest.(check bool) "interrupted resume reproduces the full dataset" true
    (datasets_equal full.Measure.dataset resumed.Measure.dataset);
  Alcotest.(check int) "exactly two shards were resumed" 2
    (List.length
       (List.filter
          (fun (c : Measure.country_coverage) -> c.Measure.resumed)
          resumed.Measure.coverage))

let test_checkpoint_parameter_mismatch_discards () =
  with_temp_file @@ fun path ->
  let world = Lazy.force world in
  let f1 = fault_opts ~rate:0.05 () in
  ignore (Measure.measure_sweep ~countries:sample ~faults:f1 ~checkpoint:path world);
  (* Same file, different fault rate: stale shards must not leak in. *)
  let f2 = fault_opts ~rate:0.2 () in
  let fresh = Measure.measure_sweep ~countries:sample ~faults:f2 ~checkpoint:path world in
  Alcotest.(check bool) "nothing resumed across a parameter change" true
    (none_resumed fresh);
  let direct = Measure.measure_sweep ~countries:sample ~faults:f2 world in
  Alcotest.(check bool) "result matches a checkpoint-free run" true
    (datasets_equal direct.Measure.dataset fresh.Measure.dataset)


let test_checkpoint_geo_accuracy_mismatch_discards () =
  with_temp_file @@ fun path ->
  (* Same seed, c and sweep, another geolocation accuracy: the shards
     carry other geolocation verdicts, so none may be resumed. *)
  let coarse = World.create ~c:300 ~geo_accuracy:0.5 ~seed:2024 () in
  let faults = fault_opts () in
  ignore (Measure.measure_sweep ~countries:sample ~faults ~checkpoint:path coarse);
  let world = Lazy.force world in
  let fresh = Measure.measure_sweep ~countries:sample ~faults ~checkpoint:path world in
  Alcotest.(check bool) "nothing resumed across a geolocation-accuracy change" true
    (none_resumed fresh);
  let direct = Measure.measure_sweep ~countries:sample ~faults world in
  Alcotest.(check bool) "result matches a checkpoint-free run" true
    (datasets_equal direct.Measure.dataset fresh.Measure.dataset)

(* --- wire chaos verdicts -------------------------------------------------- *)

module Wire = Webdep_faults.Wire

let test_wire_deterministic () =
  let p1 = Faults.make ~rate:0.5 ~seed:77 () in
  let p2 = Faults.make ~rate:0.5 ~seed:77 () in
  let seen_injected = ref 0 and seen_clean = ref 0 in
  for i = 0 to 499 do
    let key = Printf.sprintf "req-%d" i in
    let a1 = Wire.action_pure p1 ~key and a2 = Wire.action_pure p2 ~key in
    Alcotest.(check string) ("same verdict for " ^ key)
      (Wire.action_name a1) (Wire.action_name a2);
    (match a1 with Wire.Clean -> incr seen_clean | _ -> incr seen_injected);
    (* cut points and garbage are deterministic and well-formed too *)
    let c1 = Wire.cut_point p1 ~key ~len:40 and c2 = Wire.cut_point p2 ~key ~len:40 in
    Alcotest.(check int) "same cut" c1 c2;
    Alcotest.(check bool) "cut in (0, len)" true (c1 >= 1 && c1 < 40);
    let g1 = Wire.garbage p1 ~key ~len:8 and g2 = Wire.garbage p2 ~key ~len:8 in
    Alcotest.(check string) "same garbage" g1 g2;
    Alcotest.(check bool) "garbage poisons the length prefix" true
      (Char.code g1.[0] >= 0x80)
  done;
  Alcotest.(check bool) "rate 0.5 injects some" true (!seen_injected > 100);
  Alcotest.(check bool) "rate 0.5 leaves some clean" true (!seen_clean > 100)

let test_wire_disabled_and_rate_zero () =
  let disabled = Faults.disabled in
  let zero = Faults.make ~rate:0.0 ~seed:3 () in
  for i = 0 to 99 do
    let key = string_of_int i in
    (match Wire.action_pure disabled ~key with
    | Wire.Clean -> ()
    | a -> Alcotest.fail ("disabled plan injected " ^ Wire.action_name a));
    match Wire.action_pure zero ~key with
    | Wire.Clean -> ()
    | a -> Alcotest.fail ("rate-0 plan injected " ^ Wire.action_name a)
  done

let () =
  Alcotest.run "webdep_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "pure" `Quick test_plan_pure;
          Alcotest.test_case "seeds differ" `Quick test_plan_seeds_differ;
          Alcotest.test_case "rate bounds" `Quick test_plan_rate_bounds;
          Alcotest.test_case "zero rate never fires" `Quick
            test_plan_zero_rate_never_fires;
          Alcotest.test_case "transients recover" `Quick test_transient_faults_recover;
          Alcotest.test_case "permanents persist" `Quick
            test_permanent_faults_never_recover;
        ] );
      ( "retry",
        [
          Alcotest.test_case "budget exhaustion" `Quick test_retry_budget_exhaustion;
          Alcotest.test_case "non-retryable" `Quick
            test_retry_non_retryable_single_attempt;
          Alcotest.test_case "recovers" `Quick test_retry_recovers;
          Alcotest.test_case "simulated budget" `Quick
            test_retry_simulated_budget_cuts_off;
          Alcotest.test_case "backoff deterministic" `Quick
            test_backoff_deterministic_and_growing;
        ] );
      ( "cache",
        [
          Alcotest.test_case "no cached SERVFAIL" `Quick
            test_resolver_does_not_cache_injected_failure;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs-invariant with faults" `Quick
            test_sweep_jobs_invariant_with_faults;
          Alcotest.test_case "rate 0 = legacy" `Quick
            test_sweep_zero_rate_identical_to_legacy;
          Alcotest.test_case "coverage gating" `Quick test_coverage_threshold_gates;
          Alcotest.test_case "scores stay close" `Quick test_faulted_scores_stay_close;
        ] );
      ( "wire",
        [
          Alcotest.test_case "chaos verdicts deterministic" `Quick
            test_wire_deterministic;
          Alcotest.test_case "disabled and rate-0 stay clean" `Quick
            test_wire_disabled_and_rate_zero;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "interrupted resume" `Quick
            test_checkpoint_interrupted_resume;
          Alcotest.test_case "parameter mismatch" `Quick
            test_checkpoint_parameter_mismatch_discards;
          Alcotest.test_case "geo_accuracy mismatch" `Quick
            test_checkpoint_geo_accuracy_mismatch_discards;
          Alcotest.test_case "call-order header refused" `Quick
            test_checkpoint_call_order_refused;
          Alcotest.test_case "epochs share one file" `Quick
            test_checkpoint_epochs_share_one_file;
          Alcotest.test_case "golden bytes" `Quick test_checkpoint_golden_bytes;
          Alcotest.test_case "ids foreign to the world refused" `Quick
            test_checkpoint_foreign_ids_refused;
          Alcotest.test_case "schema 3 file discarded" `Quick
            test_checkpoint_schema_3_discarded;
        ] );
    ]
