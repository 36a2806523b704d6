(** Process-wide parallelism configuration and convenience fan-outs.

    One shared {!Pool.t} serves every phase of the toolkit (measurement
    sweeps, bootstrap resampling, bench phases), spawned lazily the
    first time a parallel combinator runs and reused afterwards.  The
    lane count comes from [--jobs] via {!set_jobs} and defaults to
    [Domain.recommended_domain_count ()]; [set_jobs 1] restores the
    exact sequential execution path (no domains are ever spawned).

    All combinators preserve input order, so a parallel run returns
    bit-identical results to [jobs = 1] whenever the mapped function is
    pure with respect to scheduling. *)

module Pool = Pool

val jobs : unit -> int
(** The currently configured lane count (default
    [Domain.recommended_domain_count ()]). *)

val set_jobs : int -> unit
(** Configure the shared pool's lane count.  An existing shared pool of
    a different size is shut down; the next combinator respawns it
    lazily.  @raise Invalid_argument if the argument is [< 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs] on the shared pool ([?jobs] overrides
    the configured lane count for this call, using a temporary pool when
    it differs from the shared one).  Results are in input order. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}. *)

val map_fold :
  ?jobs:int -> ('a -> 'b) -> init:'acc -> fold:('acc -> 'b -> 'acc) -> 'a list -> 'acc
(** [map_fold f ~init ~fold xs] maps [f] over [xs] on the pool and folds
    the results on the calling domain, in input order, window by window:
    at most twice the lane count (at least 8) mapped results are ever
    live, so the peak heap of a large fan-out stays bounded by the
    window instead of the input.  Equivalent to
    [List.fold_left fold init (List.map f xs)] whenever [f] is pure with
    respect to scheduling; [fold] itself always runs sequentially. *)

val shutdown : unit -> unit
(** Shut down the shared pool (it respawns on next use).  Mostly for
    tests and orderly exits. *)
