(** Iterative resolution over the delegation {!Hierarchy} — ZDNS's
    iterative mode: start from the root hints, follow referrals, answer
    from the authoritative servers, and report how much work it took. *)

type stats = {
  queries : int;  (** total questions asked *)
  referrals : int;  (** delegations followed *)
}

type error = Resolver.error =
  | Nxdomain
  | Timeout
  | Refused
  | Servfail of string
(** Same canonical error as {!Resolver.error}.  The walk ends in
    [Nxdomain] or in [Servfail] with a reason (referral loop, missing
    glue, over-long CNAME chain); it asks no server that could time out
    or refuse. *)

val m_queries : Webdep_obs.Metrics.counter
(** Total questions asked across every resolution this process ran. *)

val m_referrals : Webdep_obs.Metrics.counter
(** Total delegations followed. *)

val m_nxdomain : Webdep_obs.Metrics.counter
(** Resolutions that ended in NXDOMAIN. *)

val m_servfail : Webdep_obs.Metrics.counter
(** Resolutions that ended in SERVFAIL (referral loop, missing glue,
    over-long CNAME chain). *)

val m_depth : Webdep_obs.Metrics.histogram
(** Queries per {e successful} resolution — the pipeline's mean_queries
    comes from deltas of this histogram. *)

val resolve :
  Hierarchy.t -> vantage:string -> string -> (Webdep_netsim.Ipv4.addr list * stats, error) result
(** Resolve a qname's A records, walking from the root hints: the head
    server of each delegation set answers, and a CNAME restarts the walk
    at the root for its target. *)
