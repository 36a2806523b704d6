(** The ZDNS-style resolver: given a domain and a vantage country, return
    the A records and the nameserver set with their addresses.  These are
    the two lookups the paper's pipeline performs per site (hosting IP and
    NS IP). *)

type response = {
  a : Webdep_netsim.Ipv4.addr list;  (** website addresses *)
  ns_hosts : string list;  (** authoritative nameserver hostnames *)
  ns_addrs : Webdep_netsim.Ipv4.addr list;  (** their glue addresses *)
}

type error =
  | Nxdomain  (** definitive: the name does not exist *)
  | Timeout  (** transient: query timed out (injected) *)
  | Refused  (** transient: server answered REFUSED (injected) *)
  | Servfail of string  (** transient: server failure, with detail *)
(** The canonical resolution error shared by the flat and iterative
    resolvers.  Only {!Nxdomain} is definitive; the rest are transient
    and eligible for retry. *)

val error_message : error -> string

val retryable : error -> bool
(** [true] for every transient error, [false] for {!Nxdomain}. *)

val m_lookups : Webdep_obs.Metrics.counter
(** Total flat lookups issued. *)

val m_nxdomain : Webdep_obs.Metrics.counter
(** Lookups for unknown domains. *)

val m_cname_chased : Webdep_obs.Metrics.counter
(** CNAME links followed while chasing to the terminal A answer. *)

type cache
(** The [(vantage, ns_host)]-keyed NS-glue memo {!resolve} consults (a
    few DNS providers serve nearly every site, so their glue repeats).
    Whole responses are not memoized: every caller resolves each
    [(vantage, domain)] once per sweep.  The measurement sweep passes
    none (a memo hit costs more than the lookup it saves); the
    multi-vantage redundancy and probe sweeps do.  Not thread-safe;
    create one per worker/sweep.  Hit/miss counters appear in the obs
    registry as [dns.cache.glue.*]. *)

val make_cache : unit -> cache

val resolve :
  ?cache:cache ->
  ?faults:Webdep_faults.Fault_plan.t ->
  ?retry:Webdep_faults.Retry.policy ->
  Zone_db.t ->
  vantage:string ->
  string ->
  (response, error) result
(** [resolve db ~vantage domain]; [vantage] is the probing country code
    (the paper's university vantage is modelled as "US").

    One {!Zone_db.find} gives the name's NS hosts and its own answer;
    a CNAME is followed with one more lookup per hop, up to
    [max_cname_depth] (5) hops: past that the chain yields no
    addresses, and a dangling target, or one that answers nothing,
    falls back to the name's own answer.  Each call counts one
    [dns.flat.lookups], an unknown name one [dns.flat.nxdomain], and
    each link followed one [dns.flat.cname_chased].

    With [?cache], nameserver glue comes from the caller's glue memo;
    the answers are the same either way.  [?faults] (default: no faults)
    injects deterministic timeouts/SERVFAIL/REFUSED per the plan;
    [?retry] (default: single attempt) governs how transient failures
    are retried. *)

val resolve_a :
  ?cache:cache ->
  ?faults:Webdep_faults.Fault_plan.t ->
  ?retry:Webdep_faults.Retry.policy ->
  Zone_db.t ->
  vantage:string ->
  string ->
  Webdep_netsim.Ipv4.addr option
(** First A record, if any. *)
