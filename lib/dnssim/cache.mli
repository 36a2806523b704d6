(** TTL-less memo cache for resolver results, keyed on [(vantage, qname)]
    so split-horizon (Geo/Dynamic) answers from different probe countries
    never collide — what a per-resolver cache in the paper's measurement
    setup would hold for the duration of a sweep.

    The table itself takes no lock: create one cache per worker (the
    redundancy and probe sweeps build one per country, which a single
    domain resolves).  The hit/miss counters live in the process-global
    obs registry under [name ^ ".hits"] / [name ^ ".misses"], so caches
    sharing a [name] aggregate — a --metrics dump or BENCH_obs.json shows
    fleet-wide hit rates without extra plumbing. *)

type 'a t

val create : ?size:int -> name:string -> unit -> 'a t
(** Fresh empty cache; [name] prefixes the obs hit/miss counters. *)

val find_or_compute : 'a t -> vantage:string -> string -> (unit -> 'a) -> 'a
(** Return the cached value or compute, store and return it.  For
    values that are always definitive (nameserver glue). *)

val length : 'a t -> int
(** Number of cached entries. *)

val hits : 'a t -> int
(** Current value of the cache's hit counter (shared across caches with
    the same [name]). *)

val misses : 'a t -> int
(** Current value of the miss counter (same sharing caveat). *)
