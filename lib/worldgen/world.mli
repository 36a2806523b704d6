(** The assembled synthetic web.

    A world fixes a seed, a per-country toplist size [c], and a
    geolocation accuracy, and exposes:

    - per-country, per-layer provider {!Mix.t}s, calibrated to the
      paper's Appendix-F scores;
    - a shared simulated {!Webdep_netsim.Internet.t} in which every
      hosting/DNS provider owns a network;
    - a shared CCADB-style CA database;
    - per-country {!snapshot}s: the CrUX-style toplist plus the
      authoritative DNS zones and TLS certificate store for that
      country's sites, built on demand so memory stays bounded by one
      country.

    {!create} builds everything shared; afterwards a world is read-only,
    so its bytes depend on (seed, [c], geolocation accuracy) alone —
    never on which snapshots were taken before, in what order, or on
    which domain.

    Two epochs are supported for the §5.4 longitudinal experiment: the
    May-2025 world re-derives hosting targets (Brazil and Russia anchored,
    Cloudflare +3.8 pts on average, small jitter elsewhere) and evolves
    each toplist with a ~0.37 Jaccard churn. *)

type epoch = May_2023 | May_2025

val epoch_name : epoch -> string

type t

val create : ?c:int -> ?geo_accuracy:float -> seed:int -> unit -> t
(** [c] defaults to 10 000 (the paper's per-country cut); [geo_accuracy]
    defaults to 0.894 (NetAcuity's measured country-level accuracy).

    Builds the whole world up front: calibrates all 750 mixes (150
    countries × 2023 TLD, hosting, DNS and CA, plus 2025 hosting) across
    the {!Webdep_par} pool (span [worldgen.calibrate]), then registers
    every network they name in one fixed serial walk — the multi-CDN
    secondaries (Amazon, Fastly), each country's 2023 hosting and DNS
    providers in {!Webdep_geo.Country.all} order, then each country's
    2025 hosting providers — and every CA owner of the 2023 CA mixes
    (span [worldgen.register]).  ASNs, prefixes and geolocation draws
    follow that walk.  Costs ~0.2 s at [c = 300] and ~0.55–0.6 s at
    [c = 2 000] and [c = 10 000] on a 2-core machine (two lanes),
    whatever the number of countries later measured. *)

val c : t -> int
val seed : t -> int

val geo_accuracy : t -> float
(** The accuracy the world was created with — part of the world
    fingerprint that keys sweep checkpoints. *)

val countries : t -> string list
(** The 150 dataset countries, by code. *)

val internet : t -> Webdep_netsim.Internet.t
val ca_db : t -> Webdep_tlssim.Ca.t

(** {1 Entity numbers}

    {!create} fixes a dense number for every entity a site can be
    labelled with, so a measurement can write integers and name them
    once per entity rather than once per site: hosting and DNS
    organizations by {!Webdep_netsim.Org.id}, CA owners by
    {!Webdep_tlssim.Ca.owner}'s [id], geolocation verdicts by
    {!Webdep_netsim.Internet.geo_id}, content languages by
    {!Language.id}, and TLD labels here.  Like the rest of the world
    they are read-only after {!create}. *)

val tld_id : t -> string -> int
(** The number of a TLD label, e.g. [".de"], among the labels the
    world's TLD mixes mint (every TLD provider named with a leading
    dot), numbered in {!Webdep_geo.Country.all} walk order; [-1] for a
    label they do not mint. *)

val tld_label : t -> int -> string
(** The TLD label a {!tld_id} number stands for.
    @raise Invalid_argument for a number no label carries. *)

type uncalibrated = {
  country : string;
  layer : Profiles.layer;
  epoch : epoch;  (** the epoch whose mix was asked for *)
  c : int;
  reason : string;  (** the calibrator's refusal *)
  min_c : int option;
      (** the smallest [c] above [c] (searched up to [c + 10 000]) at
          which this mix calibrates *)
}

exception Uncalibrated of uncalibrated
(** A (country, layer) mix whose Appendix-F target the calibrator cannot
    attain with [c] sites — at small [c] the attainable 𝒮 range narrows
    (at c = 60, 19 (country, layer, epoch) mixes fail; at c = 80 only IR
    hosting for May 2025; none at c = 100 nor at the larger values
    checked up to 10 000).  {!create} keeps such a mix as the
    calibrator's refusal; {!mix} raises it for the epoch asked for, and
    so does every call that derives a country's sites: {!snapshot} and
    {!prepare}. *)

val uncalibrated_message : uncalibrated -> string
(** One line naming the country, layer, epoch and the smallest [c] that
    calibrates. *)

val mix : t -> ?epoch:epoch -> Profiles.layer -> string -> Mix.t
(** The calibrated mix for a country and layer, built by {!create}.
    @raise Uncalibrated when the target is unattainable at this [c]
    (the smallest calibrating [c] is searched for only then). *)

type snapshot = {
  country : string;
  epoch : epoch;
  toplist : Webdep_crux.Toplist.t;
  zones : Webdep_dnssim.Zone_db.t;
  tls : Webdep_tlssim.Handshake.t;
  assigned : int -> Provider.t * Provider.t * Provider.t;
      (** ground truth by toplist index: the hosting, DNS and CA
          providers drawn for the site at that index — for validation;
          the pipeline must recover these through measurement.  Read
          from the snapshot's assignment draws, so a sweep that never
          asks pays nothing for it. *)
  content_language : (string, string) Hashtbl.t;
      (** per-domain content language (what a fetch of the page would
          let LangDetect classify), correlated with the hosting
          provider's home country per {!Language} *)
}

val prepare : t -> ?epoch:epoch -> string list -> unit
(** The calibration check: raises the first {!Uncalibrated} among the
    given countries' mixes, in input order (codes outside the dataset
    are skipped).  It changes nothing — {!create} has already built
    everything — so a sweep calls it only to report a too-small [c]
    before fanning out. *)

val snapshot : t -> ?epoch:epoch -> string -> snapshot
(** Materialize one country's measurable state (span
    [world.snapshot.<epoch>]).  Deterministic in (seed, [c], geolocation
    accuracy, country, epoch); not cached — drop the reference when
    done.  Reads the world and writes nothing shared, so any domain may
    take any snapshot, in any order, without a lock.

    Per site it builds only what a measurement reads: one zone entry
    (two for a CDN-fronted site: the alias and its CNAME target) whose
    A answer is one closure with its anycast, unicast or multi-CDN
    branch chosen here, one certificate and one content-language
    entry.  Each DNS provider's glue is registered at its first site
    (a provider whose slug an earlier one took keeps the earlier glue),
    and the ground truth is read by index from the assignment draws.
    @raise Invalid_argument for a code outside the dataset's 150
    countries — a caller bug, not a measurement failure. *)

val multi_cdn_fraction : float
(** Fraction of sites served by a secondary provider from some vantages
    (made-for §3.4: keeps probe-measured scores close to, but not
    identical to, home-vantage scores). *)
