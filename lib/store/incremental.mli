(** Incremental metric recomputation under churn.

    Holds one {!Webdep.Dataset.Tally} per country for one layer and
    recomputes the paper's metrics from the maintained tallies instead
    of re-tallying every site: centralization 𝒮 and HHI, usage [U],
    endemicity [E]/[E_R] and insularity.  Every metric is bit-identical
    to a cold recomputation over the equivalent dataset.

    𝒮 is cached per country.  Every site update ({!add}/{!remove}, and
    {!apply} on top of them) marks the country dirty; the next read
    refreshes it by one walk of the tally's count
    histogram ({!Webdep.Dataset.Tally.score}): one [pow] per distinct
    count, each term added once per entity holding that count, which
    repeats the float additions [Centralization.score] makes over the
    count-descending list.  There is one refresh path; the counters say
    what preceded it.  [store.metrics.full_solve] counts refreshes after
    a delta that changed the provider support set (a provider appeared
    or vanished) and [store.metrics.incremental] refreshes after one
    that kept it; [store.metrics.cache_hits] counts reads of a clean
    country. *)

type t

val create : Webdep.Dataset.t -> Webdep.Dataset.layer -> t
(** Tally every country of the dataset in the layer. *)

val empty : Webdep.Dataset.layer -> string list -> t
(** The countries, in that order, with no site yet. *)

val countries : t -> string list

(** {2 Updates by tally id}

    A caller that keeps each site's tally id can take the site out again
    without hashing its label: {!tally_id} hashes it once, when the site
    arrives, and {!add}/{!remove} update by the id. *)

type country
(** One country's tally in the layer. *)

val country : t -> string -> country
(** @raise Not_found if the country is absent. *)

val tally_id : country -> Webdep.Dataset.site -> int
(** The id of the site's label in the country's tally (minted on first
    sight), or [-1] when the site has no label in the layer. *)

val add : country -> int -> unit
(** Count one more site under a {!tally_id}: [-1] counts toward the
    site total only. *)

val remove : country -> int -> unit
(** Count one site fewer under the {!tally_id} it was added with.
    @raise Invalid_argument if that id's count is already zero. *)

val apply :
  t ->
  country:string ->
  added:Webdep.Dataset.site list ->
  removed:Webdep.Dataset.site list ->
  unit
(** Delta-update one country: {!remove} each of [removed], then {!add}
    each of [added], looking their labels up in the tally.  Sites in
    [removed] must carry the labels they were tallied with (i.e. come
    from the superseded dataset).
    @raise Invalid_argument on removal of a never-tallied entity. *)

val score : t -> string -> float
(** Centralization 𝒮, bit-identical to
    [Webdep.Metrics.centralization].  @raise Not_found if the country is
    absent or has no labelled site. *)

val hhi : t -> string -> float
(** HHI, 𝒮 + 1/c, bit-identical to [Webdep_emd.Centralization.hhi].
    @raise Not_found as {!score}. *)

val insularity : t -> string -> float
(** Bit-identical to [Webdep.Regionalization.insularity]. *)

val counts : t -> string -> (Webdep.Dataset.entity * int) list
(** The country's canonical (entity, count) list — count-descending,
    ties by name then country.  The top-k provider-share queries of
    [webdep_serve] read it directly from the maintained tally.
    @raise Not_found if the country is absent. *)

val total : t -> string -> int
(** All sites of the country, labelled or not (the share denominator).
    @raise Not_found if the country is absent. *)

val usage : t -> name:string -> Webdep.Regionalization.usage_stats
(** Usage/endemicity stats of one provider, bit-identical to
    [Webdep.Regionalization.usage_curve] on the equivalent dataset.
    @raise Not_found if no country uses the provider. *)
