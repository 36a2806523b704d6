(** Per-domain measurement outcomes and per-country coverage tallies. *)

type outcome =
  | Clean     (** measured with no injected interference *)
  | Degraded  (** a fault touched this domain but (partial) data was
                  still collected, possibly via retries *)
  | Failed    (** no usable hosting measurement *)

type tally = { clean : int; degraded : int; failed : int }

val empty : tally
val add : tally -> outcome -> tally
val total : tally -> int

val ratio : tally -> float
(** Coverage ratio in [0, 1]: (clean + degraded) / total.  Degraded
    domains still yield measurements, so they count toward coverage.
    An empty tally has ratio 1.0. *)

val sufficient : threshold:float -> tally -> bool
(** [ratio t >= threshold].  A threshold of 0.0 never gates. *)
