(** A fixed-size pool of worker domains with deterministic fan-out.

    The pool is spawned once ([jobs - 1] worker domains plus the calling
    domain, which participates in every run) and reused across phases, so
    repeated parallel sweeps pay the domain-spawn cost only once.  All
    combinators hand out work in fixed-size chunks through an atomic
    cursor and write results back into slots indexed by input position,
    so the output is bit-identical to the sequential path regardless of
    how chunks land on domains.

    Restrictions: a pool must be driven from one domain at a time.  A
    task that re-enters the pool (nested [map] from inside a worker) is
    detected and run sequentially on the calling domain, so nesting is
    safe but not parallel. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [jobs] lanes ([jobs - 1] worker domains).  [jobs = 1]
    spawns no domains and every combinator degenerates to the plain
    sequential loop.  @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The lane count the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], computed on the pool.  Results
    are collected in input order.  The first exception raised by [f]
    (in input chunk order) is re-raised in the caller. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}; same ordering and exception guarantees. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool must not be
    used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** Create a temporary pool, run the function, and shut the pool down
    (also on exceptions). *)
