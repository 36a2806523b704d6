(** The assembled synthetic web.

    A world fixes a seed, a per-country toplist size [c], and a
    geolocation accuracy, and exposes:

    - per-country, per-layer provider {!Mix.t}s, calibrated to the
      paper's Appendix-F scores (cached);
    - a shared simulated {!Webdep_netsim.Internet.t} in which every
      hosting/DNS provider owns a network;
    - a shared CCADB-style CA database;
    - per-country {!snapshot}s: the CrUX-style toplist plus the
      authoritative DNS zones and TLS certificate store for that
      country's sites, built on demand so memory stays bounded by one
      country.

    Two epochs are supported for the §5.4 longitudinal experiment: the
    May-2025 world re-derives hosting targets (Brazil and Russia anchored,
    Cloudflare +3.8 pts on average, small jitter elsewhere) and evolves
    each toplist with a ~0.37 Jaccard churn. *)

type epoch = May_2023 | May_2025

val epoch_name : epoch -> string

type t

val create : ?c:int -> ?geo_accuracy:float -> seed:int -> unit -> t
(** [c] defaults to 10 000 (the paper's per-country cut); [geo_accuracy]
    defaults to 0.894 (NetAcuity's measured country-level accuracy). *)

val c : t -> int
val seed : t -> int

val geo_accuracy : t -> float
(** The accuracy the world was created with — part of the measurement
    store's invalidation fingerprint. *)

val countries : t -> string list
(** The 150 dataset countries, by code. *)

val internet : t -> Webdep_netsim.Internet.t
val ca_db : t -> Webdep_tlssim.Ca.t

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
    checked up to 10 000).  Raised by
    {!mix} and so by every call that derives a country's sites:
    {!toplist}, {!snapshot}, {!prepare}. *)

val uncalibrated_message : uncalibrated -> string
(** One line naming the country, layer, epoch and the smallest [c] that
    calibrates. *)

val mix : t -> ?epoch:epoch -> Profiles.layer -> string -> Mix.t
(** Cached calibrated mix for a country and layer.
    @raise Uncalibrated when the target is unattainable at this [c]. *)

type snapshot = {
  country : string;
  epoch : epoch;
  toplist : Webdep_crux.Toplist.t;
  zones : Webdep_dnssim.Zone_db.t;
  tls : Webdep_tlssim.Handshake.t;
  assigned : (string, Provider.t * Provider.t * Provider.t) Hashtbl.t;
      (** ground truth per domain: hosting, dns, ca — for validation
          tests; the pipeline must recover these through measurement *)
  content_language : (string, string) Hashtbl.t;
      (** per-domain content language (what a fetch of the page would
          let LangDetect classify), correlated with the hosting
          provider's home country per {!Language} *)
}

val prepare : t -> ?epoch:epoch -> string list -> unit
(** Perform, in canonical sequential order, every shared-state mutation
    the given countries' snapshots would trigger: network registration
    (ASN and prefix allocation, geolocation-error draws) and CA issuer
    registration.  After [prepare], {!snapshot} for those countries
    touches shared state read-only, so snapshots may be taken
    concurrently from several domains — and, because the registration
    order is fixed here rather than by measurement scheduling, the
    resulting worlds are bit-identical to a fully sequential run.
    Idempotent per (epoch, country); safe to call repeatedly. *)

val toplist : t -> ?epoch:epoch -> string -> Webdep_crux.Toplist.t
(** The country's toplist exactly as its {!snapshot} would carry it,
    derived without materializing zones, certificates or network
    registrations — cheap enough to ask "which sites would this sweep
    measure?" before deciding whether a snapshot is needed at all.
    @raise Invalid_argument like {!snapshot}. *)

val snapshot : t -> ?epoch:epoch -> string -> snapshot
(** Materialize one country's measurable state.  Deterministic in
    (seed, country, epoch); not cached — drop the reference when done.
    Thread-safe once {!prepare} has covered the country (and correct —
    merely order-sensitive in prefix allocation — even when it hasn't).
    @raise Invalid_argument for a code outside the dataset's 150
    countries — a caller bug, not a measurement failure. *)

val multi_cdn_fraction : float
(** Fraction of sites served by a secondary provider from some vantages
    (made-for §3.4: keeps probe-measured scores close to, but not
    identical to, home-vantage scores). *)
