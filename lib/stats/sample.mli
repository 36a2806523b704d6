(** Random sampling from the distributions used by the synthetic world:
    Zipf-like power laws (website popularity, provider tails), categorical
    draws (provider assignment), and shuffles. *)

val zipf_weights : s:float -> int -> float array
(** [zipf_weights ~s n] is the unnormalized Zipf weight vector
    [(1/1^s, 1/2^s, ..., 1/n^s)].  @raise Invalid_argument if [n <= 0]. *)

val zipf_probabilities : s:float -> int -> float array
(** [zipf_probabilities ~s n] is {!zipf_weights} normalized to sum to 1. *)

val zipf : Rng.t -> s:float -> int -> int
(** [zipf rng ~s n] draws a rank in [0, n) with probability proportional to
    [1/(rank+1)^s], by inversion on the cumulative weights.  O(log n). *)

type categorical
(** Precomputed alias-free categorical sampler (cumulative inversion). *)

val categorical : float array -> categorical
(** [categorical weights] builds a sampler over indices [0..n-1] with
    probability proportional to [weights].  Weights must be nonnegative and
    not all zero.  @raise Invalid_argument otherwise. *)

val draw : categorical -> Rng.t -> int
(** Draw an index.  O(log n). *)

val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : Rng.t -> 'a array -> 'a
(** Uniform draw from a nonempty array.  @raise Invalid_argument on [||]. *)

val multinomial : Rng.t -> trials:int -> float array -> int array
(** [multinomial rng ~trials probs] distributes [trials] draws over the
    categories of [probs]; result sums to [trials]. *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** Gaussian draw via the Box–Muller transform.
    @raise Invalid_argument if [stddev < 0]. *)

val log_normal : Rng.t -> mu:float -> sigma:float -> float
(** [exp (normal ~mean:mu ~stddev:sigma)] — the heavy-tailed size
    distribution used for per-country web volumes. *)

val round_shares : total:int -> float array -> int array
(** [round_shares ~total shares] deterministically apportions [total] units
    across categories proportional to [shares] (largest-remainder method);
    result sums to [total].  Used when an exact, noise-free split is needed
    (e.g. calibrated provider counts). *)
