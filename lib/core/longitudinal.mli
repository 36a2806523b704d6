(** Longitudinal comparison of two measurement snapshots (§5.4). *)

type country_delta = {
  country : string;
  old_score : float;
  new_score : float;
  delta : float;  (** new − old *)
  jaccard : float;  (** toplist similarity between snapshots *)
  top_entity_delta : (string * float) option;
      (** named entity's share change, when a focus entity is given *)
}

type comparison = {
  deltas : country_delta list;  (** by descending |delta| *)
  rho : Webdep_stats.Correlation.result;  (** old vs new 𝒮 across countries *)
  mean_jaccard : float;
  focus_mean_delta : float option;
      (** mean share change of the focus entity (the paper tracks
          Cloudflare: +3.8 pts) *)
}

val compare :
  ?focus:string -> old_ds:Dataset.t -> new_ds:Dataset.t -> Dataset.layer -> comparison
(** Countries present in both datasets are compared; [focus] names an
    entity whose per-country share change is tracked (e.g.
    "Cloudflare"). *)

val largest_increase : comparison -> country_delta

(** {2 Trend primitives}

    Shared by the multi-epoch churn-log replay ([webdep_epoch]): a
    many-epoch score series reduces to a per-country least-squares slope
    and a per-transition rank-churn figure. *)

val slope : float array -> float
(** Least-squares slope of the series against epoch index [0..n-1];
    NaN entries (country absent from an epoch) are skipped, and fewer
    than two finite points yield [0.0]. *)

val rank_displacement : (string * float) list -> (string * float) list -> int
(** Total absolute rank movement between two (country, score) rankings:
    both are ordered score-descending (ties by country code, the same
    order the serve plane uses) and the displacements of countries
    present in both are summed. *)
