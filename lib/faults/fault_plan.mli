(** Deterministic, seed-driven fault assignment for the measurement plane.

    A plan is a pure function: every verdict is a hash of (plan seed,
    channel, key, attempt).  No mutable RNG state is consumed, so fault
    decisions are independent of scheduling order — a faulted sweep is
    byte-identical at any [--jobs] — and a retry re-asks the same
    question with only the attempt number changed, letting transiently
    flaky servers recover after a bounded number of attempts. *)

type kind =
  | Dns_timeout        (** recursive query times out *)
  | Dns_servfail       (** authoritative answers SERVFAIL *)
  | Dns_refused        (** authoritative answers REFUSED *)
  | Tls_truncated      (** TLS handshake truncated mid-flight *)
  | Tls_failed         (** TLS handshake rejected *)

type t

val disabled : t
(** The null plan: never injects, adds no per-query hashing cost. *)

val make :
  ?rate:float ->
  ?recover_after:int ->
  ?permanent_fraction:float ->
  seed:int ->
  unit ->
  t
(** [make ~seed ()] builds an enabled plan.  [rate] (default 0.05) is
    the probability a given key is faulty; [recover_after] (default 3)
    bounds how many attempts a transient fault persists for;
    [permanent_fraction] (default 0.1) is the fraction of faulty keys
    that never recover.  [rate] outside [0, 1] raises
    [Invalid_argument].  A plan with [rate = 0.0] is enabled but never
    fires — useful for measuring the overhead of the fault machinery
    itself. *)

val enabled : t -> bool
val rate : t -> float
val seed : t -> int

type verdict = No_fault | Fault of kind

val dns_fault : t -> vantage:string -> qname:string -> attempt:int -> verdict
(** Fault decision for a flat recursive resolution.  Draws from
    {!Dns_timeout}, {!Dns_servfail}, {!Dns_refused}.  Increments the
    matching [fault.injected.*] counter when it fires. *)

val tls_fault : t -> sni:string -> attempt:int -> verdict
(** Fault decision for a TLS handshake.  Draws from {!Tls_truncated},
    {!Tls_failed}. *)

val dns_faulty : t -> vantage:string -> qname:string -> bool
(** Whether this resolution key is assigned any DNS fault (at attempt
    0), regardless of later recovery.  Pure — no counter side effect.
    Used to classify a domain as [Degraded] even when retries
    ultimately succeeded. *)

val tls_faulty : t -> sni:string -> bool
(** Same, for the TLS channel. *)

(** {1 Hash primitives}

    Building blocks for new fault channels (e.g. {!Wire}): pure draws
    from the plan's keyed hash.  Both are deterministic in (plan seed,
    tag, key) and consume no mutable state, so any channel built on them
    inherits the jobs-invariance of the plan. *)

val u01 : t -> string -> string -> float
(** [u01 t tag key] — uniform draw in [0, 1). *)

val pick_int : t -> string -> string -> int -> int
(** [pick_int t tag key bound] — uniform draw in [0, bound). *)
