(** Cross-phase measurement memoization.

    A store maps (epoch, resolution, vantage, domain) to the measured
    site record and its fault outcome, for one world {!Fingerprint.t}.
    The measurement pipeline consults it before resolving a site and
    feeds it after, so the longitudinal sweep, repeated table phases and
    churn epochs pay only for sites they have never measured — the
    memoized record is exactly what a fresh measurement would produce,
    so store-backed and cold sweeps are byte-identical.

    Stores are domain-safe: lookups and inserts may come from parallel
    sweep workers.  The hit/miss counters are per-domain totals, so they
    are invariant under [--jobs].

    An optional spill ({!save}/{!load}) persists a store across
    processes as a {!Webdep_faults.Segment}: a header carrying the
    schema tag and the fingerprint, then one record per entry.  Loading
    a file whose header does not match the current fingerprint discards
    it entirely — replaying measurements from a differently-parameterized
    world would silently corrupt results. *)

type entry = {
  site : Webdep.Dataset.site;
  outcome : Webdep_faults.Degrade.outcome;
}

type t

val create : fingerprint:Fingerprint.t -> unit -> t

val fingerprint : t -> Fingerprint.t

val size : t -> int

val find :
  t -> epoch:string -> resolution:string -> vantage:string -> string -> entry option
(** Memoized measurement of a domain, if present.  Increments
    [store.hits] or [store.misses]. *)

val find_all :
  t ->
  epoch:string ->
  resolution:string ->
  vantage:string ->
  string list ->
  entry list option
(** All-or-nothing lookup of a whole sweep's domains, in order.  On full
    coverage increments [store.hits] by the domain count and returns the
    entries; on any gap returns [None] {e without} touching counters, so
    a caller falling back to per-site {!find} still produces exact
    per-domain hit/miss totals. *)

val add :
  t -> epoch:string -> resolution:string -> vantage:string -> string -> entry -> unit
(** Memoize one measurement.  Last write wins (entries for a key are
    deterministic, so racing writers agree). *)

val save : t -> string -> unit
(** Spill to a file atomically, entries in sorted key order so the file
    is identical for any insertion (and [--jobs]) order. *)

val load : path:string -> fingerprint:Fingerprint.t -> t
(** Load a spill file into a fresh store for [fingerprint].  A missing
    file yields an empty store; an existing file with a mismatched
    header yields an empty store and increments [store.invalidated]; a
    torn or corrupt record drops that record and the rest, and
    increments [store.spill.torn_recovered]. *)
