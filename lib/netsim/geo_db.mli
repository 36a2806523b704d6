(** IP geolocation error model — the NetAcuity substrate.

    Reproduces the paper's note that NetAcuity is ~89.4% accurate at
    country level (Gharaibeh et al.): a prefix is mislabeled with
    probability [1 − accuracy] to a uniformly chosen other country from
    the candidate pool.  {!Internet} draws one verdict per allocated /20
    when it registers the block and stores it, so the database is wrong
    consistently, not randomly per query, as a static commercial
    database is. *)

type t

val create :
  ?accuracy:float -> ?candidates:string list -> Webdep_stats.Rng.t -> unit -> t
(** [create rng ()] with [accuracy] defaulting to 1.0 (exact) and
    [candidates] the pool of wrong answers (default: the 150 dataset
    countries).  @raise Invalid_argument if accuracy outside [0, 1]. *)

val verdict : t -> string -> string
(** [verdict t truth] draws the country the database believes for a
    prefix whose true country is [truth], advancing the error model's
    random stream.  A mislabel is never [truth] unless the candidate
    pool holds nothing else. *)
