module World = Webdep_worldgen.World
module Internet = Webdep_netsim.Internet
module Resolver = Webdep_dnssim.Resolver
module Handshake = Webdep_tlssim.Handshake
module Tls_ca = Webdep_tlssim.Ca
module Toplist = Webdep_crux.Toplist
module Dataset = Webdep.Dataset
module Language = Webdep_worldgen.Language

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
module Degrade = Webdep_faults.Degrade
module Checkpoint = Webdep_faults.Checkpoint
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

(* The TLD entity keyed by [tld], a domain's [tld_of_domain]. *)
let tld_entity_of tld =
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

(* What the world's ids stand for.  A sweep's fold names each id once,
   the first time its dataset meets it; a decode names one per site. *)
let names world =
  let internet = World.internet world and ca_db = World.ca_db world in
  {
    Dataset.org_entity = (fun id -> org_entity (Internet.org internet id));
    ca_entity =
      (fun id ->
        let o = Tls_ca.owner ca_db id in
        { Dataset.name = o.Tls_ca.name; country = o.Tls_ca.country });
    tld_entity = (fun id -> tld_entity_of (World.tld_label world id));
    geo_label = Internet.geo_name internet;
    lang_label = Language.label;
  }

(* Fault-handling context for a sweep: the plan decides which simulated
   servers misbehave, the retry policy bounds how hard we push back, and
   the coverage threshold gates per-country metric emission. *)
type fault_opts = {
  plan : Faults.t;
  retry : Retry.policy;
  coverage_threshold : float;
}

let no_faults = { plan = Faults.disabled; retry = Retry.no_retry; coverage_threshold = 0.0 }

(* An address's labels as world ids + 1 (0 = none). *)
let org_id internet = function
  | None -> 0
  | Some ip -> (
      match Internet.org_of_addr internet ip with
      | Some o -> o.Webdep_netsim.Org.id + 1
      | None -> 0)

let geo_id internet = function None -> 0 | Some ip -> Internet.geo_id internet ip + 1

let anycast internet = function None -> false | Some ip -> Internet.is_anycast_addr internet ip

(* Measure site [i] of [w], named [domain], into its hosting, DNS, CA
   and aux slots (its TLD slot needs no measuring). *)
let measure_site internet ca_db zones tls ~vantage ~content ~fo (w : Dataset.world_ids) i domain =
  Metric.incr m_sites;
  let faulted = Faults.enabled fo.plan in
  Metric.incr m_dns_queries;
  let hosting_ip, ns_ip =
    match Resolver.resolve ~faults:fo.plan ~retry:fo.retry zones ~vantage domain with
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
  let hosting_anycast = anycast internet hosting_ip in
  let ns_anycast = anycast internet ns_ip in
  if hosting_anycast then Metric.incr m_anycast_hosting;
  if ns_anycast then Metric.incr m_anycast_ns;
  let ca =
    match hosting_ip with
    | None -> 0
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
                    Handshake.handshake ~faults:fo.plan ~attempt tls ~addr ~sni:domain
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
            0
        | Some cert -> (
            match Tls_ca.owner_of_issuer ca_db cert.Webdep_tlssim.Cert.issuer_cn with
            | Some o -> o.Tls_ca.id + 1
            | None -> 0))
  in
  let language =
    (* Fetch the page and run language detection, as the paper does with
       LangDetect; only possible when the site resolved. *)
    match hosting_ip with
    | None -> 0
    | Some _ -> (
        match content domain with
        | Some truth -> 1 + Language.id (Langdetect.detect ~domain truth)
        | None -> 0)
  in
  if language > 0 then Metric.incr m_lang_detected;
  w.Dataset.w_hosting.{i} <- Int32.of_int (org_id internet hosting_ip);
  w.w_dns.{i} <- Int32.of_int (org_id internet ns_ip);
  w.w_ca.{i} <- Int32.of_int ca;
  w.w_aux.{i} <-
    Dataset.pack_aux ~hgeo:(geo_id internet hosting_ip) ~nsgeo:(geo_id internet ns_ip)
      ~lang:language ~hany:hosting_anycast ~nany:ns_anycast;
  let outcome : Degrade.outcome =
    if Option.is_none hosting_ip then Failed
    else if
      faulted
      && (Faults.dns_faulty fo.plan ~vantage ~qname:domain
         || Faults.tls_faulty fo.plan ~sni:domain)
    then Degraded (* a fault touched it, even if retries recovered *)
    else Clean
  in
  (match outcome with
  | Degrade.Degraded -> Metric.incr m_sites_degraded
  | Degrade.Failed -> Metric.incr m_sites_failed
  | Degrade.Clean -> ());
  outcome

(* The world half of the fingerprint comes from the world itself; the
   fault half from the sweep options.  The vantage also shapes a site
   record, so the checkpoint header adds it next to the fingerprint;
   the epoch keys each checkpoint record instead. *)
let store_fingerprint ?(faults = no_faults) world =
  Fingerprint.v ~world_seed:(World.seed world) ~c:(World.c world)
    ~geo_accuracy:(World.geo_accuracy world)
    ~fault_seed:(Faults.seed faults.plan)
    ~fault_rate:(Faults.rate faults.plan)
    ~max_attempts:faults.retry.Retry.max_attempts

(* One country's sites against the world's ids, one slot per toplist
   index.  Each site is resolved once, flat, with no memo in front: a
   glue memo would hit on ~95% of lookups and still not pay, since
   [Zone_db.host_addr] is one table lookup, a memo hit two plus a
   counter bump.  A domain whose TLD label the world does not number
   (one without a dot, whose label is the whole domain) keeps its
   entity beside the columns. *)
let measure_snapshot_ids ?(vantage = default_vantage) ?(faults = no_faults) world
    (snap : World.snapshot) =
  let internet = World.internet world in
  let ca_db = World.ca_db world in
  let content domain = Hashtbl.find_opt snap.World.content_language domain in
  let domains = snap.World.toplist.Toplist.domains in
  let n = Array.length domains in
  let w = Dataset.world_ids ~country:snap.World.country domains in
  let others = ref [] and n_others = ref 0 in
  for i = 0 to n - 1 do
    let label = tld_of_domain domains.(i) in
    match World.tld_id world label with
    | -1 ->
        others := tld_entity_of label :: !others;
        incr n_others;
        w.Dataset.w_tld.{i} <- Int32.of_int (- !n_others)
    | id -> w.w_tld.{i} <- Int32.of_int (id + 1)
  done;
  let w = { w with w_other_tlds = Array.of_list (List.rev !others) } in
  let tally = ref Degrade.empty in
  for i = 0 to n - 1 do
    tally :=
      Degrade.add !tally
        (measure_site internet ca_db snap.World.zones snap.World.tls ~vantage ~content
           ~fo:faults w i domains.(i))
  done;
  (w, !tally)

let measure_snapshot ?vantage world snap =
  Dataset.decode_world_ids (names world) (fst (measure_snapshot_ids ?vantage world snap))

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

(* The world fingerprint plus the rest of what shapes a site record,
   except the epoch: every epoch of one world shares a checkpoint. *)
let checkpoint_meta ?(vantage = default_vantage) ~faults world =
  Fingerprint.to_meta (store_fingerprint ~faults world)
  @ [ ("vantage", Webdep_json.String vantage) ]

let measure_sweep ?vantage ?epoch ?countries ?jobs ?(faults = no_faults) ?checkpoint
    world =
  let countries = Option.value ~default:(World.countries world) countries in
  let epoch_name = World.epoch_name (Option.value ~default:World.May_2023 epoch) in
  Obs.Span.with_ ~name:"measure_all"
    ~attrs:[ ("countries", string_of_int (List.length countries)) ]
    (fun () ->
      (* A country the world cannot calibrate at this [c] fails here,
         before the fan-out. *)
      World.prepare world ?epoch countries;
      let cp =
        Option.map
          (fun path ->
            Checkpoint.open_ ~path ~meta:(checkpoint_meta ?vantage ~faults world))
          checkpoint
      in
      (* Streaming construction: each country is measured on a worker
         lane into id columns against the world's ids, then folded — in
         canonical input order, on this domain — into the dataset
         builder, which remaps the columns in place and keeps them off
         the OCaml heap.  Peak heap holds one window of countries in
         flight, never the whole world; the sequential fold also keeps
         the builder's interner ids identical at any [jobs].  A resumed
         country's ids, checked against this world, fold the same way. *)
      let names = names world in
      let fits = Dataset.world_ids_fit names in
      let b = Dataset.builder () in
      let coverage_rev = ref [] in
      let insufficient_rev = ref [] in
      Webdep_par.map_fold ?jobs
        (fun cc ->
          match Option.bind cp (fun cp -> Checkpoint.find cp ~epoch:epoch_name ~fits cc) with
          | Some e ->
              Logs.debug (fun m -> m "resumed %s %s from checkpoint" epoch_name cc);
              (cc, e.Checkpoint.ids, e.Checkpoint.tally, true)
          | None ->
              Logs.debug (fun m -> m "measuring %s" cc);
              let w, tally =
                Obs.Span.with_ ~name:("measure_country." ^ cc) ~attrs:[ ("country", cc) ] (fun () ->
                    measure_snapshot_ids ?vantage ~faults world (World.snapshot world ?epoch cc))
              in
              Option.iter
                (fun cp -> Checkpoint.record cp { Checkpoint.epoch = epoch_name; tally; ids = w })
                cp;
              (cc, w, tally, false))
        ~init:()
        ~fold:(fun () (cc, w, tally, resumed) ->
          let ratio = Degrade.ratio tally in
          Metric.observe h_coverage ratio;
          coverage_rev := { cc; tally; ratio; resumed } :: !coverage_rev;
          if Degrade.sufficient ~threshold:faults.coverage_threshold tally then
            Obs.Span.with_ ~name:"dataset.append" ~attrs:[ ("country", cc) ] (fun () ->
                Dataset.builder_append b names w)
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

let measure_all ?vantage ?epoch ?countries ?jobs world =
  (measure_sweep ?vantage ?epoch ?countries ?jobs world).dataset

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
  (* The glue memo is keyed on (vantage, host), so sharing one across
     the vantage sweep is sound; NS glue repeats across sites. *)
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
