(** Regionalization metrics (§3.3): usage, endemicity, endemicity ratio
    and insularity.

    A provider's {e usage curve} lists, per country, the percentage of
    popular websites using the provider, sorted nonincreasing.  Usage [U]
    is the area under the curve; endemicity [E] the area between the
    curve and the flat line at its maximum; and the endemicity ratio
    [E_R = E / (U + E)] normalizes out provider size — 0 is perfectly
    global, 1 perfectly regional. *)

type usage_stats = {
  entity : Dataset.entity;
  curve : float array;  (** nonincreasing per-country usage, percent *)
  usage : float;  (** U = Σ uᵢ *)
  endemicity : float;  (** E = Σ (u₁ − uᵢ) *)
  endemicity_ratio : float;  (** E_R = E / (U + E); 0 when U + E = 0 *)
}

val usage_curve : Dataset.t -> Dataset.layer -> name:string -> usage_stats
(** Usage statistics of one provider across every country in the
    dataset.  @raise Not_found if no country uses the provider. *)

val all_usage : Dataset.t -> Dataset.layer -> usage_stats list
(** Usage statistics for every provider appearing in the layer,
    descending by usage. *)

val insularity : Dataset.t -> Dataset.layer -> string -> float
(** Fraction of a country's websites whose provider in the layer is
    based in the same country (§3.3 "Countries"). *)

val all_insularity : Dataset.t -> Dataset.layer -> (string * float) list
(** [(country, insularity)] for every country, descending. *)

val foreign_dependence : Dataset.t -> Dataset.layer -> string -> (string * float) list
(** Breakdown of a country's websites by the provider's home country,
    descending share — surfaces cross-border dependencies like
    Turkmenistan → Russia. *)

val dependence_matrix :
  Dataset.t -> Dataset.layer -> (Webdep_geo.Region.continent * (Webdep_geo.Region.continent * float) list) list
(** Figure 8a: for each continent (of the dependent countries, averaged
    over its countries), the share of websites served by providers
    head-quartered in each continent. *)
