(** Process-global counters and histograms, safe under concurrent
    mutation from several domains.

    A metric is created (or found) by name through a mutex-guarded
    registry, so instrumented modules bind theirs once at module
    initialization; {!incr} and {!observe} then touch only atomic
    fields, with no table lookup and no lock.  No update is ever lost
    under concurrency; cross-field reads (e.g. {!mean}) are not
    snapshotted atomically. *)

type counter
type histogram

(** {2 Counters} *)

val counter : string -> counter
(** The counter registered under the name, created at zero on first
    use. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1). *)

val value : counter -> int

(** {2 Histograms} *)

val histogram : ?bounds:float array -> string -> histogram
(** The histogram registered under the name, created on first use with
    [bounds] (ascending bucket upper bounds; the default covers
    sub-second durations and small integer observations) plus an
    overflow bucket.  A later call with the same name returns the first
    histogram whatever its [bounds]. *)

val observe : histogram -> float -> unit
val count : histogram -> int
val sum : histogram -> float

val mean : histogram -> float
(** 0 when empty. *)

val stddev : histogram -> float
(** Population standard deviation; 0 when empty. *)

val min_value : histogram -> float option
val max_value : histogram -> float option

val quantile : histogram -> float -> float option
(** [quantile h q] interpolates linearly inside the bucket holding rank
    [q * count], clamped to the observed [min, max]; [None] when empty. *)

val buckets_with_sums : histogram -> (float option * int * float) list
(** Nonempty buckets as (upper bound, count, sum of observations), the
    overflow bucket last with no bound. *)

(** Observe-only fast path: an unsynchronized accumulator over one
    histogram's buckets, owned by one domain.  {!Local.flush} folds the
    pending observations into the shared histogram in one pass, so the
    shared-state traffic is per flush, not per observation. *)
module Local : sig
  type t

  val create : histogram -> t
  val observe : t -> float -> unit

  val flush : t -> unit
  (** Fold the pending observations into the target histogram and
      clear them; a no-op when nothing is pending. *)
end

(** {2 The registry} *)

val fold_counters : (string -> int -> 'a -> 'a) -> 'a -> 'a
(** Fold over (name, value) of every registered counter, in no order. *)

val fold_histograms : (string -> histogram -> 'a -> 'a) -> 'a -> 'a
(** Fold over every registered histogram with its name, in no order. *)

val reset : unit -> unit
(** Zero every registered metric in place; references held by
    instrumented modules stay valid. *)
