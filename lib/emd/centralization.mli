(** The paper's Centralization Score 𝒮 (§3.2, Appendix A).

    𝒮 is the Earth Mover's Distance from an observed provider distribution
    [A = (a_1..a_n)] to the fully decentralized reference [R] ([C] buckets
    of mass 1, [C = Σ a_i]), with ground distance
    [d_ij = (a_i − 1)/C] and normalization by total flow.  It admits the
    closed form

    {v 𝒮 = Σ_i (a_i/C)² − 1/C v}

    which is the Herfindahl–Hirschman Index minus [1/C]; the upper bound is
    [1 − 1/C], approached by a single provider hosting everything. *)

val score : Dist.t -> float
(** Closed-form 𝒮 of a distribution. *)

val score_of_counts : int array -> float
(** Convenience: {!score} of [Dist.of_counts]. *)

val score_of_shares : float array -> float
(** 𝒮 from a market-share vector summing to 1, with [C] taken as the
    paper's fixed toplist size of 10 000.  Use {!score_of_shares_c} to
    choose [C].  @raise Invalid_argument unless they sum to 1 (NaN never does). *)

val score_of_shares_c : c:int -> float array -> float
(** 𝒮 from shares with an explicit website count [C]. *)

val hhi : Dist.t -> float
(** Herfindahl–Hirschman Index [Σ (a_i/C)²]: 𝒮 + 1/C. *)

val upper_bound : c:int -> float
(** [1 − 1/C], the maximum attainable 𝒮 for [C] websites. *)

val via_transport : ?fast:bool -> Dist.t -> float
(** 𝒮 via the transport formulation against the explicit uniform
    reference.  With [fast] (the default) the uniform reference admits a
    closed form — the ground distance is independent of the demand
    bucket, so every feasible flow has identical work
    [Σ a_i·(a_i − 1)/C²] and the flow network is skipped entirely.
    [~fast:false] builds the full C-bucket network and runs
    {!Transport.solve}; it exists to validate the closed form (Appendix A
    ablation) and is intended for small [C]. *)

(** US DoJ Herfindahl interpretation bands the paper cites for context
    (§3.2): competitive (<0.10), moderately concentrated (0.10–0.18),
    highly concentrated (>0.18). *)
type doj_band = Competitive | Moderately_concentrated | Highly_concentrated

val doj_band : float -> doj_band
val doj_band_to_string : doj_band -> string

val default_c : int
(** The paper's per-country toplist size, 10 000. *)
