module World = Webdep_worldgen.World
module Internet = Webdep_netsim.Internet
module Resolver = Webdep_dnssim.Resolver
module Handshake = Webdep_tlssim.Handshake
module Tls_ca = Webdep_tlssim.Ca
module Toplist = Webdep_crux.Toplist
module Dataset = Webdep.Dataset

let default_vantage = "US"

(* Observability: per-stage counters over everything this process has
   measured.  The counters live in the webdep_obs registry, so a
   --metrics dump or the bench's BENCH_obs.json picks them up without
   extra plumbing; per-country timings come from the measure_country
   spans. *)
module Obs = Webdep_obs
module Metric = Webdep_obs.Metrics
module Faults = Webdep_faults.Fault_plan
module Retry = Webdep_faults.Retry
module Quarantine = Webdep_faults.Quarantine
module Degrade = Webdep_faults.Degrade
module Checkpoint = Webdep_faults.Checkpoint
module Store = Webdep_store.Store
module Fingerprint = Webdep_store.Fingerprint

let m_sites = Metric.counter "pipeline.sites.measured"
let m_dns_queries = Metric.counter "pipeline.dns.queries"
let m_dns_nxdomain = Metric.counter "pipeline.dns.nxdomain"
let m_tls_handshakes = Metric.counter "pipeline.tls.handshakes"
let m_tls_failures = Metric.counter "pipeline.tls.handshake_failures"
let m_anycast_hosting = Metric.counter "pipeline.anycast.hosting_hits"
let m_anycast_ns = Metric.counter "pipeline.anycast.ns_hits"
let m_lang_detected = Metric.counter "pipeline.lang.detected"
let m_sites_degraded = Metric.counter "pipeline.sites.degraded"
let m_sites_failed = Metric.counter "pipeline.sites.failed"
let m_insufficient = Metric.counter "coverage.insufficient"

let h_coverage =
  Metric.histogram ~bounds:[| 0.5; 0.8; 0.9; 0.95; 0.99; 1.0 |] "coverage.ratio"

let tld_of_domain domain =
  match String.rindex_opt domain '.' with
  | None -> domain
  | Some i -> String.sub domain i (String.length domain - i)

let tld_entity domain =
  let tld = tld_of_domain domain in
  let label = String.uppercase_ascii (String.sub tld 1 (String.length tld - 1)) in
  let home =
    if label = "UK" then "GB"
    else if Webdep_geo.Country.mem label then label
    else
      (* Global TLD registries; .com/.net/.org etc. operate from the US
         (the paper treats .com as insular to the US). *)
      match tld with
      | ".io" -> "GB"
      | ".me" -> "ME"
      | ".co" -> "CO"
      | ".shop" -> "JP"
      | ".top" -> "CN"
      | _ -> "US"
  in
  { Dataset.name = tld; country = home }

let org_entity (org : Webdep_netsim.Org.t) =
  { Dataset.name = org.Webdep_netsim.Org.name; country = org.Webdep_netsim.Org.country }

(* Fault-handling context for a sweep: the plan decides which simulated
   servers misbehave, the retry policy bounds how hard we push back, the
   coverage threshold gates per-country metric emission, and the
   quarantine threshold caps consecutive failures per target. *)
type fault_opts = {
  plan : Faults.t;
  retry : Retry.policy;
  coverage_threshold : float;
  quarantine_after : int;
}

let no_faults =
  {
    plan = Faults.disabled;
    retry = Retry.no_retry;
    coverage_threshold = 0.0;
    quarantine_after = 3;
  }

let failed_site domain =
  {
    Dataset.domain;
    hosting = None;
    dns = None;
    ca = None;
    tld = tld_entity domain;
    hosting_geo = None;
    ns_geo = None;
    hosting_anycast = false;
    ns_anycast = false;
    language = None;
  }

let measure_site internet ca_db zones tls ~vantage ~content ?cache ?resolve_a ~fo
    ~quarantine domain =
  Metric.incr m_sites;
  let faulted = Faults.enabled fo.plan in
  if faulted && Quarantine.active quarantine domain then begin
    (* K consecutive failures: stop burning retry budget on this target. *)
    Metric.incr m_sites_failed;
    (failed_site domain, Degrade.Failed)
  end
  else begin
    Metric.incr m_dns_queries;
    let resolved =
      Resolver.resolve ?cache ~faults:fo.plan ~retry:fo.retry zones ~vantage domain
    in
    let hosting_ip, ns_ip =
      match resolved with
      | Error Resolver.Nxdomain ->
          Metric.incr m_dns_nxdomain;
          (None, None)
      | Error _ ->
          (* Transient failure that survived the retry budget. *)
          (None, None)
      | Ok { Resolver.a; ns_addrs; _ } ->
          ((match a with ip :: _ -> Some ip | [] -> None),
           match ns_addrs with ip :: _ -> Some ip | [] -> None)
    in
    (* An alternative A-resolution strategy (iterative walk) may replace the
       flat lookup; NS data still comes from the same authoritative store. *)
    let hosting_ip = match resolve_a with Some f -> f domain | None -> hosting_ip in
    let hosting = Option.bind hosting_ip (Internet.org_of_addr internet) in
    let dns = Option.bind ns_ip (Internet.org_of_addr internet) in
    let hosting_geo = Option.bind hosting_ip (Internet.geolocate internet) in
    let ns_geo = Option.bind ns_ip (Internet.geolocate internet) in
    let hosting_anycast =
      match hosting_ip with Some ip -> Internet.is_anycast_addr internet ip | None -> false
    in
    let ns_anycast =
      match ns_ip with Some ip -> Internet.is_anycast_addr internet ip | None -> false
    in
    if hosting_anycast then Metric.incr m_anycast_hosting;
    if ns_anycast then Metric.incr m_anycast_ns;
    let ca =
      match hosting_ip with
      | None -> None
      | Some addr -> (
          Metric.incr m_tls_handshakes;
          let hs =
            if not faulted then Handshake.handshake tls ~addr ~sni:domain
            else
              (* Retry only handshakes the plan interfered with: a site
                 that genuinely has no TLS fails identically on every
                 attempt, so retrying it would only distort counters. *)
              match
                Retry.run fo.retry ~key:("tls|" ^ domain)
                  ~retryable:(fun () -> Faults.tls_faulty fo.plan ~sni:domain)
                  (fun ~attempt ->
                    match
                      Handshake.handshake ~faults:fo.plan ~attempt tls ~addr
                        ~sni:domain
                    with
                    | Some cert -> Ok cert
                    | None -> Error ())
              with
              | Ok cert -> Some cert
              | Error () -> None
          in
          match hs with
          | None ->
              Metric.incr m_tls_failures;
              None
          | Some cert ->
              Option.map
                (fun (o : Tls_ca.owner) ->
                  { Dataset.name = o.Tls_ca.name; country = o.Tls_ca.country })
                (Tls_ca.owner_of_issuer ca_db cert.Webdep_tlssim.Cert.issuer_cn))
    in
    let language =
      (* Fetch the page and run language detection, as the paper does with
         LangDetect; only possible when the site resolved. *)
      match hosting_ip with
      | None -> None
      | Some _ ->
          Option.map (fun truth -> Langdetect.detect ~domain truth) (content domain)
    in
    (match language with Some _ -> Metric.incr m_lang_detected | None -> ());
    let site =
      {
        Dataset.domain;
        hosting = Option.map org_entity hosting;
        dns = Option.map org_entity dns;
        ca;
        tld = tld_entity domain;
        hosting_geo;
        ns_geo;
        hosting_anycast;
        ns_anycast;
        language;
      }
    in
    let outcome : Degrade.outcome =
      if Option.is_none hosting_ip then Failed
      else if
        faulted
        && (Faults.dns_faulty fo.plan ~vantage ~qname:domain
           || Faults.tls_faulty fo.plan ~sni:domain)
      then Degraded (* a fault touched it, even if retries recovered *)
      else Clean
    in
    if faulted then begin
      match (outcome, resolved) with
      | Degrade.Failed, Error e when Resolver.retryable e ->
          Quarantine.record_failure quarantine domain
      | _ -> Quarantine.record_success quarantine domain
    end;
    (match outcome with
    | Degrade.Degraded -> Metric.incr m_sites_degraded
    | Degrade.Failed -> Metric.incr m_sites_failed
    | Degrade.Clean -> ());
    (site, outcome)
  end

type resolution = Flat | Iterative

let resolution_name = function Flat -> "flat" | Iterative -> "iterative"

(* The store half of the world fingerprint comes from the world itself;
   the fault half from the sweep options.  Anything else that shapes a
   site record (epoch, vantage, resolution) is part of the per-entry
   key, not the fingerprint. *)
let store_fingerprint ?(faults = no_faults) world =
  Fingerprint.v ~world_seed:(World.seed world) ~c:(World.c world)
    ~geo_accuracy:(World.geo_accuracy world)
    ~fault_seed:(Faults.seed faults.plan)
    ~fault_rate:(Faults.rate faults.plan)
    ~max_attempts:faults.retry.Retry.max_attempts

(* Quarantine streaks depend on the order sites fail in, so memoizing
   individual sites under an active fault plan could replay a history
   that never happened; the store only serves fault-free sweeps. *)
let usable_store ~faults store =
  if Faults.enabled faults.plan then None else store

let measure_snapshot_cov ?(vantage = default_vantage) ?(resolution = Flat)
    ?(cache = true) ?(faults = no_faults) ?quarantine ?store world
    (snap : World.snapshot) =
  let internet = World.internet world in
  let ca_db = World.ca_db world in
  let content domain = Hashtbl.find_opt snap.World.content_language domain in
  (* One resolver cache per snapshot: the snapshot is measured by a
     single worker domain, so the cache needs no lock, and per-snapshot
     scoping keeps the aggregate hit/miss counters independent of how
     countries are spread over domains (jobs-invariance). *)
  let rcache = if cache then Some (Resolver.make_cache ()) else None in
  let resolve_a =
    match resolution with
    | Flat -> None
    | Iterative ->
        let hierarchy = Webdep_dnssim.Hierarchy.build snap.World.zones in
        let icache =
          if cache then Some (Webdep_dnssim.Iterative.make_cache ()) else None
        in
        Some
          (fun domain ->
            Webdep_dnssim.Iterative.resolve_a ?cache:icache ~faults:faults.plan
              ~retry:faults.retry hierarchy ~vantage domain)
  in
  (* Quarantine state defaults to snapshot scope; callers re-probing the
     same shard (checkpointed re-runs, watchdog loops) pass their own so
     failure streaks span probes. *)
  let quarantine =
    match quarantine with
    | Some q -> q
    | None -> Quarantine.create ~threshold:faults.quarantine_after ()
  in
  let store = usable_store ~faults store in
  let epoch = World.epoch_name snap.World.epoch in
  let resolution = resolution_name resolution in
  let tally = ref Degrade.empty in
  let measure domain =
    measure_site internet ca_db snap.World.zones snap.World.tls ~vantage ~content
      ?cache:rcache ?resolve_a ~fo:faults ~quarantine domain
  in
  let sites =
    List.map
      (fun domain ->
        let site, outcome =
          match store with
          | None -> measure domain
          | Some st -> (
              match Store.find st ~epoch ~resolution ~vantage domain with
              | Some e -> (e.Store.site, e.Store.outcome)
              | None ->
                  let site, outcome = measure domain in
                  Store.add st ~epoch ~resolution ~vantage domain
                    { Store.site; outcome };
                  (site, outcome))
        in
        tally := Degrade.add !tally outcome;
        site)
      (Toplist.domains snap.World.toplist)
  in
  ({ Dataset.country = snap.World.country; sites }, !tally)

let measure_snapshot ?vantage ?resolution ?cache world snap =
  fst (measure_snapshot_cov ?vantage ?resolution ?cache world snap)

(* Warm fast path: when the store already holds every site of the sweep,
   rebuild the country data from it without materializing the snapshot
   at all — the toplist alone decides which keys to ask for, and deriving
   it costs a fraction of zone/TLS generation.  All-or-nothing: a single
   missing site falls back to the snapshot path, whose per-site lookups
   still reuse every stored site. *)
let country_from_store ?(vantage = default_vantage) ?(resolution = Flat)
    ?(epoch = World.May_2023) ~store world cc =
  let toplist = World.toplist world ~epoch cc in
  match
    Store.find_all store ~epoch:(World.epoch_name epoch)
      ~resolution:(resolution_name resolution) ~vantage (Toplist.domains toplist)
  with
  | None -> None
  | Some entries ->
      let tally = ref Degrade.empty in
      let sites =
        List.map
          (fun (e : Store.entry) ->
            tally := Degrade.add !tally e.Store.outcome;
            e.Store.site)
          entries
      in
      Some ({ Dataset.country = cc; sites }, !tally)

let measure_country_cov ?vantage ?resolution ?cache ?epoch ?(faults = no_faults)
    ?quarantine ?store world cc =
  (* Per-country span: the name carries the country so the registry dump
     exposes one duration histogram per country. *)
  Obs.Span.with_ ~name:("measure_country." ^ cc)
    ~attrs:[ ("country", cc) ]
    (fun () ->
      let warm =
        match usable_store ~faults store with
        | None -> None
        | Some store -> country_from_store ?vantage ?resolution ?epoch ~store world cc
      in
      match warm with
      | Some result -> result
      | None ->
          measure_snapshot_cov ?vantage ?resolution ?cache ~faults ?quarantine
            ?store world (World.snapshot world ?epoch cc))

let measure_country ?vantage ?resolution ?cache ?epoch world cc =
  fst (measure_country_cov ?vantage ?resolution ?cache ?epoch world cc)

type country_coverage = {
  cc : string;
  tally : Degrade.tally;
  ratio : float;
  resumed : bool;
}

type sweep = {
  dataset : Dataset.t;
  coverage : country_coverage list;
  insufficient : string list;
}

let checkpoint_meta ?vantage ?resolution ?epoch ~faults world =
  let open Webdep_json in
  [
    ("world_seed", Int (World.seed world));
    ("c", Int (World.c world));
    ("epoch", String (World.epoch_name (Option.value ~default:World.May_2023 epoch)));
    ("vantage", String (Option.value ~default:default_vantage vantage));
    ("resolution", String (resolution_name (Option.value ~default:Flat resolution)));
    ("fault_seed", Int (Faults.seed faults.plan));
    ("fault_rate", Float (Faults.rate faults.plan));
    ("max_attempts", Int faults.retry.Retry.max_attempts);
  ]

let measure_sweep ?vantage ?resolution ?cache ?epoch ?countries ?jobs
    ?(faults = no_faults) ?checkpoint ?store world =
  let countries = Option.value ~default:(World.countries world) countries in
  let store = usable_store ~faults store in
  Obs.Span.with_ ~name:"measure_all"
    ~attrs:[ ("countries", string_of_int (List.length countries)) ]
    (fun () ->
      (* Warm pre-pass: rebuild fully-stored countries up front, so an
         entirely warm sweep pays neither registration replay nor
         snapshot materialization.  Sequential on purpose — the per-hit
         counters then accrue in one fixed order, and the totals are the
         same at any [jobs]. *)
      let warm = Hashtbl.create 16 in
      (match store with
      | Some st when Store.size st > 0 ->
          List.iter
            (fun cc ->
              if Webdep_geo.Country.mem cc then
                match
                  country_from_store ?vantage ?resolution ?epoch ~store:st world cc
                with
                | Some r -> Hashtbl.replace warm cc r
                | None -> ())
            countries
      | Some _ | None -> ());
      (* Fix every shared-state registration (ASN/prefix allocation,
         geolocation draws, CA issuers) in canonical sequential order
         before fanning out, so the per-country sweeps are read-only on
         the world and the dataset is bit-identical at any [jobs].  Only
         countries the store cannot fully serve need it. *)
      let cold = List.filter (fun cc -> not (Hashtbl.mem warm cc)) countries in
      World.prepare world ?epoch cold;
      let cp =
        Option.map
          (fun path ->
            let cp =
              Checkpoint.open_ ~path
                ~meta:(checkpoint_meta ?vantage ?resolution ?epoch ~faults world)
            in
            if Checkpoint.loaded cp > 0 then
              Logs.info (fun m ->
                  m "checkpoint %s: resuming past %d completed countries" path
                    (Checkpoint.loaded cp));
            cp)
          checkpoint
      in
      (* Streaming construction: each country's string-form site list is
         produced on a worker lane, then folded — in canonical input
         order, on this domain — into the dataset builder's interned
         arrays and released.  Peak heap holds one window of string-form
         countries plus the compact dataset, never the whole world; the
         sequential fold also keeps the builder's interner ids identical
         at any [jobs]. *)
      let b = Dataset.builder () in
      let coverage_rev = ref [] in
      let insufficient_rev = ref [] in
      Webdep_par.map_fold ?jobs
        (fun cc ->
          match Option.bind cp (fun cp -> Checkpoint.find cp cc) with
          | Some e ->
              Logs.debug (fun m -> m "resumed %s from checkpoint" cc);
              (cc, e.Checkpoint.data, e.Checkpoint.tally, true)
          | None ->
              let data, tally =
                match Hashtbl.find_opt warm cc with
                | Some (data, tally) ->
                    Logs.debug (fun m -> m "rebuilt %s from store" cc);
                    (data, tally)
                | None ->
                    Logs.debug (fun m -> m "measuring %s" cc);
                    measure_country_cov ?vantage ?resolution ?cache ?epoch
                      ~faults ?store world cc
              in
              Option.iter
                (fun cp -> Checkpoint.record cp { Checkpoint.country = cc; tally; data })
                cp;
              (cc, data, tally, false))
        ~init:()
        ~fold:(fun () (cc, data, tally, resumed) ->
          let ratio = Degrade.ratio tally in
          Metric.observe h_coverage ratio;
          coverage_rev := { cc; tally; ratio; resumed } :: !coverage_rev;
          if Degrade.sufficient ~threshold:faults.coverage_threshold tally then
            Dataset.builder_add b data
          else begin
            insufficient_rev := cc :: !insufficient_rev;
            Metric.incr m_insufficient;
            Logs.warn (fun m ->
                m "insufficient_coverage %s: below threshold %.2f, metrics withheld"
                  cc faults.coverage_threshold)
          end)
        countries;
      {
        dataset = Dataset.builder_finish b;
        coverage = List.rev !coverage_rev;
        insufficient = List.rev !insufficient_rev;
      })

let measure_all ?vantage ?resolution ?cache ?epoch ?countries ?jobs ?store world =
  (measure_sweep ?vantage ?resolution ?cache ?epoch ?countries ?jobs ?store world)
    .dataset

type resolution_stats = {
  domains : int;
  agreement : float;
  mean_queries : float;
  failures : int;
}

let iterative_resolution_stats ?(vantage = default_vantage) ?epoch world cc =
  let snap = World.snapshot world ?epoch cc in
  let hierarchy = Webdep_dnssim.Hierarchy.build snap.World.zones in
  let domains = Toplist.domains snap.World.toplist in
  (* Accumulate the per-call stats [Iterative.resolve] already returns.
     (Reading deltas of the resolver's process-global counters would
     misattribute queries whenever another domain resolves
     concurrently.) *)
  let module I = Webdep_dnssim.Iterative in
  let agree = ref 0 and ok = ref 0 and queries = ref 0 and failures = ref 0 in
  List.iter
    (fun domain ->
      let flat = Resolver.resolve_a snap.World.zones ~vantage domain in
      match I.resolve hierarchy ~vantage domain with
      | Ok (addrs, st) ->
          incr ok;
          queries := !queries + st.I.queries;
          let iter = (match addrs with a :: _ -> Some a | [] -> None) in
          if iter = flat then incr agree
      | Error _ ->
          incr failures;
          if flat = None then incr agree)
    domains;
  {
    domains = List.length domains;
    agreement = float_of_int !agree /. float_of_int (List.length domains);
    mean_queries =
      (if !ok = 0 then 0.0 else float_of_int !queries /. float_of_int !ok);
    failures = !failures;
  }

let discover_redundancy ~vantages ?epoch world cc =
  let snap = World.snapshot world ?epoch cc in
  let internet = World.internet world in
  (* The cache is keyed on (vantage, qname), so sharing one across the
     vantage sweep is sound; the NS-glue memo repeats across sites. *)
  let cache = Resolver.make_cache () in
  List.map
    (fun domain ->
      let providers =
        List.filter_map
          (fun vantage ->
            match Resolver.resolve_a ~cache snap.World.zones ~vantage domain with
            | None -> None
            | Some ip ->
                Option.map
                  (fun (o : Webdep_netsim.Org.t) -> o.Webdep_netsim.Org.name)
                  (Internet.org_of_addr internet ip))
          vantages
      in
      { Webdep.Redundancy.domain; providers = List.sort_uniq compare providers })
    (Toplist.domains snap.World.toplist)

let paper_missing_probe_countries =
  (* 14 countries had no RIPE Atlas probes in the paper's validation. *)
  [ "TM"; "SY"; "YE"; "LY"; "SD"; "SO"; "MV"; "PG"; "GP"; "MQ"; "CU"; "HT"; "MW"; "ML" ]

let measure_with_probes ~per_country_probes ?missing ?epoch ~seed world countries =
  let missing = Option.value ~default:paper_missing_probe_countries missing in
  let pool =
    Webdep_dnssim.Probe.pool_of_countries ~missing ~per_country:per_country_probes countries
  in
  let rng = Webdep_stats.Rng.create seed in
  let internet = World.internet world in
  (* Interned provider names with a dense int tally: one string hash per
     site (the intern), integer array bumps thereafter.  The interner is
     sweep-scoped so the name-sorted id permutation — needed because ids
     are in first-seen order while [Dist] normalizes in input order — is
     recomputed only when a country introduces a provider the sweep has
     not yet seen, instead of re-sorting the whole provider set per
     country. *)
  let syms = Webdep.Symbol.create ~size:128 () in
  let sorted_ids = ref [||] in
  let sorted_by_name () =
    let n = Webdep.Symbol.count syms in
    if Array.length !sorted_ids <> n then begin
      let ids = Array.init n Fun.id in
      Array.sort
        (fun a b ->
          String.compare (Webdep.Symbol.name syms a) (Webdep.Symbol.name syms b))
        ids;
      sorted_ids := ids
    end;
    !sorted_ids
  in
  List.map
    (fun cc ->
      let snap = World.snapshot world ?epoch cc in
      let cache = Resolver.make_cache () in
      let counts = ref (Array.make 128 0) in
      List.iter
        (fun domain ->
          let probe = Webdep_dnssim.Probe.pick pool rng ~country:cc in
          match
            Resolver.resolve_a ~cache snap.World.zones
              ~vantage:probe.Webdep_dnssim.Probe.country domain
          with
          | None -> ()
          | Some ip -> (
              match Internet.org_of_addr internet ip with
              | None -> ()
              | Some org ->
                  let id = Webdep.Symbol.intern syms org.Webdep_netsim.Org.name in
                  if id >= Array.length !counts then begin
                    let bigger = Array.make (2 * (id + 1)) 0 in
                    Array.blit !counts 0 bigger 0 (Array.length !counts);
                    counts := bigger
                  end;
                  !counts.(id) <- !counts.(id) + 1))
        (Toplist.domains snap.World.toplist);
      (* Emit this country's counts in name-sorted id order, skipping
         providers the country never used: identical to sorting the
         country's own (name, count) list, since names are unique per
         id. *)
      let ids = sorted_by_name () in
      let out = ref [] in
      for i = Array.length ids - 1 downto 0 do
        let id = ids.(i) in
        if id < Array.length !counts && !counts.(id) > 0 then
          out := !counts.(id) :: !out
      done;
      let dist = Webdep_emd.Dist.of_positive_counts (Array.of_list !out) in
      (cc, Webdep_emd.Centralization.score dist))
    countries
