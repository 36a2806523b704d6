(** IP geolocation database — the NetAcuity substrate.

    Maps prefixes to countries by longest-prefix match, with a configurable
    error model reproducing the paper's note that NetAcuity is ~89.4%
    accurate at country level (Gharaibeh et al.): each prefix is, at load
    time, mislabeled with probability [1 − accuracy] to a uniformly chosen
    other country from the candidate pool.  Mislabeling at load time (not
    query time) matches how a static commercial database is wrong:
    consistently, not randomly per query. *)

type t

val create :
  ?accuracy:float -> ?candidates:string list -> Webdep_stats.Rng.t -> unit -> t
(** [create rng ()] with [accuracy] defaulting to 1.0 (exact) and
    [candidates] the pool of wrong answers (default: the 150 dataset
    countries).  @raise Invalid_argument if accuracy outside [0, 1]. *)

val verdict : t -> string -> string
(** [verdict t truth] draws the country the database believes for a
    prefix whose true country is [truth], advancing the error model's
    stream exactly as {!add} does.  For callers that keep the verdicts
    in their own index ({!Internet} stores one per allocated /20). *)

val add : t -> Ipv4.prefix -> string -> unit
(** Register a prefix's true country; the error model may record a
    different one ({!verdict}). *)

val lookup : t -> Ipv4.addr -> string option
(** Country of the longest matching prefix, as the (possibly wrong)
    database believes it. *)

val true_country : t -> Ipv4.addr -> string option
(** Ground-truth country, bypassing the error model (for tests). *)

val size : t -> int
