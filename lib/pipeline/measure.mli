(** The measurement pipeline of §3.4, run against the simulated world.

    For every site in a country's toplist: resolve A and NS records
    (ZDNS), map the hosting IP to its origin AS and AS organization
    (pfx2as + AS2Org), geolocate it (NetAcuity), check the anycast set
    (bgp.tools), perform a TLS handshake and label the leaf's CA owner
    (ZGrab2 + CCADB), and record the TLD.  The output is the enriched
    {!Webdep.Dataset.t} that the analysis toolkit consumes. *)

val default_vantage : string
(** "US" — the paper measures from Stanford University. *)

val tld_of_domain : string -> string
(** Last label with leading dot; the paper's TLD layer key. *)

(** {1 Robustness}

    Fault-handling context threaded through a sweep: which simulated
    servers misbehave, how failures are retried, and when a country's
    coverage is too thin to trust. *)

type fault_opts = {
  plan : Webdep_faults.Fault_plan.t;  (** deterministic fault assignment *)
  retry : Webdep_faults.Retry.policy;  (** DNS + TLS retry/backoff *)
  coverage_threshold : float;
      (** minimum (clean+degraded)/total per country for its metrics to
          be emitted; countries below are reported as insufficient *)
}

val no_faults : fault_opts
(** Disabled plan, single attempt, threshold 0 — the legacy pipeline.
    With this value the measured dataset is byte-identical to the
    pre-fault pipeline at any [jobs]. *)

val store_fingerprint :
  ?faults:fault_opts -> Webdep_worldgen.World.t -> Webdep_store.Fingerprint.t
(** The world fingerprint for a (world, fault-options) pair: world seed,
    toplist size, geolocation accuracy, the world's derivation
    ({!Webdep_store.Fingerprint.derivation}), and the fault plan's
    seed/rate/retry budget.  It keys sweep checkpoints (see
    {!measure_sweep}), which [webdep serve] also resumes from. *)

val measure_snapshot :
  ?vantage:string ->
  Webdep_worldgen.World.t ->
  Webdep_worldgen.World.snapshot ->
  Webdep.Dataset.country_data
(** Measure an already-materialized snapshot (used when the caller also
    needs the snapshot's ground truth).  Each site is resolved once,
    with the flat resolver and no memo.

    Like the sweep, this measures each site as the world's entity
    numbers (see {!Webdep_worldgen.World.tld_id}); the records returned
    are those numbers decoded (the sweep never decodes), so
    [Dataset.builder_add] over them builds the dataset {!measure_all}
    builds, interner ids included. *)

val measure_all :
  ?vantage:string ->
  ?epoch:Webdep_worldgen.World.epoch ->
  ?countries:string list ->
  ?jobs:int ->
  Webdep_worldgen.World.t ->
  Webdep.Dataset.t
(** Measure every (or the listed) dataset country.  Memory stays bounded:
    snapshots are materialized one country at a time and dropped.

    Countries fan out across the {!Webdep_par} domain pool ([?jobs]
    overrides the configured lane count; [1] forces the sequential
    path).  The world is read-only once created, so the returned dataset
    is bit-identical for every [jobs] value and whatever the world
    measured before.

    Each lane snapshots and measures one country (span
    [measure_country.<CC>]), writing its sites as the world's entity
    numbers into off-heap id columns; the caller folds them in input order
    through {!Webdep.Dataset.builder_append} (span [dataset.append],
    once per country), so only a window of countries is in flight.
    {!Webdep_worldgen.World.prepare} runs first, so a country this [c]
    cannot calibrate raises {!Webdep_worldgen.World.Uncalibrated}
    before any country is measured. *)

type country_coverage = {
  cc : string;
  tally : Webdep_faults.Degrade.tally;
  ratio : float;  (** (clean + degraded) / total *)
  resumed : bool;  (** recovered from the checkpoint, not re-measured *)
}

type sweep = {
  dataset : Webdep.Dataset.t;
      (** countries meeting the coverage threshold only *)
  coverage : country_coverage list;  (** every requested country *)
  insufficient : string list;
      (** countries whose coverage fell below the threshold; their
          metrics are withheld rather than silently skewed *)
}

val measure_sweep :
  ?vantage:string ->
  ?epoch:Webdep_worldgen.World.epoch ->
  ?countries:string list ->
  ?jobs:int ->
  ?faults:fault_opts ->
  ?checkpoint:string ->
  Webdep_worldgen.World.t ->
  sweep
(** {!measure_all} with graceful degradation.  Fault decisions are pure
    hashes of the plan seed and query key, so the sweep stays
    byte-identical at any [jobs] even with faults injected.  Coverage is
    observed per country in the [coverage.ratio] histogram; countries
    below [coverage_threshold] are excluded from [dataset] and listed in
    [insufficient] (counter [coverage.insufficient]).

    [?checkpoint] names a {!Webdep_faults.Checkpoint} file: each
    completed (epoch, country) shard's ids are appended and fsynced as
    its lane finishes, and a later sweep of the same world resumes past
    the shards of its epoch, folding their ids (checked against the
    world on the lane; a misfit is re-measured) as a measured country's.
    Sweeps of both epochs share one file (the daemon builds its two
    datasets this way), and only the swept epoch's shards are decoded.
    The file's header is the {!store_fingerprint} fields plus the
    vantage; any mismatch discards the stale file.  [coverage]
    says which countries were resumed. *)

type resolution_stats = {
  domains : int;
  agreement : float;  (** fraction where iterative = flat resolution *)
  mean_queries : float;  (** questions per successful resolution *)
  failures : int;  (** SERVFAIL/NXDOMAIN from the iterative walk *)
}

val iterative_resolution_stats :
  ?vantage:string ->
  ?epoch:Webdep_worldgen.World.epoch ->
  Webdep_worldgen.World.t ->
  string ->
  resolution_stats
(** Build the DNS delegation hierarchy for one country's zones, resolve
    every toplist domain iteratively from the root hints (ZDNS's
    iterative mode), and compare against the flat resolver.  Full
    agreement validates that the measurement pipeline's answers do not
    depend on the resolution strategy. *)

val discover_redundancy :
  vantages:string list ->
  ?epoch:Webdep_worldgen.World.epoch ->
  Webdep_worldgen.World.t ->
  string ->
  Webdep.Redundancy.site_providers list
(** Resolve every site of a country from several vantage countries and
    collect the distinct serving organizations per site — the §3.2
    provider-redundancy study's input.  Multi-CDN sites surface their
    secondary provider from some vantages. *)

val measure_with_probes :
  per_country_probes:int ->
  ?missing:string list ->
  ?epoch:Webdep_worldgen.World.epoch ->
  seed:int ->
  Webdep_worldgen.World.t ->
  string list ->
  (string * float) list
(** The RIPE-style validation sweep: for each listed country, resolve its
    toplist through random in-country probes (falling back to random
    global probes for [missing] countries, default the paper's 14) and
    return the hosting centralization score per country. *)
