(** Correlation coefficients and their significance, as used throughout the
    paper ("ρ = 0.90, p ≪ 0.05").  Interpretation bands follow Akoglu
    (2018), the guideline the paper cites: <0.30 poor, 0.30–0.60 fair,
    0.60–0.80 moderate, >0.80 strong. *)

type result = {
  rho : float;  (** correlation coefficient in [-1, 1] *)
  p_value : float;  (** two-sided p-value under the t approximation *)
  n : int;  (** number of paired observations *)
}

val pearson : float array -> float array -> result
(** Pearson product-moment correlation.  @raise Invalid_argument if the
    arrays differ in length or have fewer than 3 elements, or if either
    input is constant (correlation undefined). *)

val spearman : float array -> float array -> result
(** Spearman rank correlation: Pearson on mid-ranks (average ranks for
    ties).  @raise Invalid_argument as {!pearson}, under its own name. *)

type strength = Poor | Fair | Moderate | Strong

val strength : float -> strength
(** Akoglu interpretation band of |rho|. *)

val strength_to_string : strength -> string

val permutation_p : ?iterations:int -> Rng.t -> float array -> float array -> float
(** Two-sided permutation p-value for the Pearson correlation: shuffle
    [ys] [iterations] times (default 1000) and count permutations whose
    |rho| reaches the observed one.  A distribution-free check on the
    Student-t p-value of {!pearson}.
    @raise Invalid_argument as {!pearson}. *)

val fisher_interval : ?confidence:float -> result -> float * float
(** Confidence interval for rho via the Fisher z-transformation:
    [z = atanh rho], standard error [1/sqrt(n−3)], back-transformed.
    @param confidence default 0.95 (uses the normal quantile; 0.90, 0.95
    and 0.99 are supported exactly, others approximated)
    @raise Invalid_argument if [n < 4]. *)
