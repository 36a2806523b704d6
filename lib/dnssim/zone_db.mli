(** Authoritative DNS data — the zone-file substrate behind the ZDNS-style
    resolver.

    Each domain owns an NS set (nameserver hostnames) and an A answer.
    Answers can be {e vantage-dependent} to model anycast and
    geo-load-balanced CDNs: the same qname returns different addresses to
    probes in different countries, which is exactly what the paper's RIPE
    Atlas validation experiment (§3.4) stresses. *)

type answer =
  | Static of Webdep_netsim.Ipv4.addr list
      (** same addresses from every vantage *)
  | Geo of (string * Webdep_netsim.Ipv4.addr list) list * Webdep_netsim.Ipv4.addr list
      (** per-country answers with a default for unlisted vantages *)
  | Dynamic of (string -> Webdep_netsim.Ipv4.addr list)
      (** computed per vantage — geo-load-balanced CDN front-end
          selection without enumerating all countries *)

type t

val create : ?domains:int -> ?hosts:int -> unit -> t
(** An empty database sized for [domains] domain entries (aliases and
    their CNAME targets each count) and [hosts] glue hosts, 16 each by
    default.  The sizes are hints: the tables grow past them. *)

val add_domain : t -> domain:string -> ns_hosts:string list -> a:answer -> unit
(** Register authoritative data for [domain]; replaces existing data. *)

val add_alias : t -> domain:string -> target:string -> ns_hosts:string list -> unit
(** Register [domain] as a CNAME alias of [target] (how CDN-fronted
    sites are set up): resolution follows the chain to the target's A
    records. *)

val cname_of : t -> string -> string option
(** The CNAME target of a domain, if it is an alias. *)

val add_host : t -> host:string -> a:answer -> unit
(** Register glue — an address record for a nameserver hostname. *)

val domain_data : t -> string -> (string list * answer) option
(** [(ns_hosts, a)] for a domain. *)

val answer_addrs : t -> vantage:string -> string -> Webdep_netsim.Ipv4.addr list option
(** A domain's own A answer from a vantage (no CNAME chasing); [None] if
    the domain is unknown.  Geo answers hit the per-country index cooked
    at registration (sorted array + binary search), not a list scan. *)

val host_addr : t -> vantage:string -> string -> Webdep_netsim.Ipv4.addr list
(** Resolve a hostname's glue from a vantage country; [[]] if unknown.
    Uses the same cooked index as {!answer_addrs}. *)

val domain_count : t -> int

val fold_domains : (string -> string list -> answer -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over (domain, ns_hosts, answer) triples. *)

val fold_hosts : (string -> answer -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over registered glue hosts. *)
