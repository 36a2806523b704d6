(** Authoritative DNS data — the zone-file substrate behind the ZDNS-style
    resolver.

    Each domain owns an NS set (nameserver hostnames) and either an A
    answer or a CNAME target.  Answers can be {e vantage-dependent} to
    model anycast and geo-load-balanced CDNs: the same qname returns
    different addresses to probes in different countries, which is
    exactly what the paper's RIPE Atlas validation experiment (§3.4)
    stresses.

    Every answer is cooked once, at registration, into the function a
    query calls; a resolver reads a name's whole {!entry} with one
    {!find}.  Names are keyed by string equality (the tables hash with
    [String.hash], which equals [Hashtbl.hash] on strings, so folds
    visit names in the order a polymorphic table would). *)

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
    records.  The alias's own answer is empty. *)

val add_host : t -> host:string -> a:answer -> unit
(** Register glue — an address record for a nameserver hostname. *)

(** {1 Lookups} *)

type entry
(** Everything registered for one domain. *)

val find : t -> string -> entry option
(** A domain's entry, in one table lookup; [None] if the domain is
    unknown. *)

val ns_hosts : entry -> string list

val cname : entry -> string option
(** The CNAME target, if the domain is an alias. *)

val addrs : entry -> vantage:string -> Webdep_netsim.Ipv4.addr list
(** The entry's own A answer from a vantage (no CNAME chasing; [[]] for
    an alias).  Geo answers hit the per-country index cooked at
    registration (sorted array + binary search), not a list scan. *)

val host_addr : t -> vantage:string -> string -> Webdep_netsim.Ipv4.addr list
(** Resolve a hostname's glue from a vantage country; [[]] if unknown. *)

val domain_count : t -> int

val fold_domains : (string -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the registered domain names (aliases included). *)

val fold_hosts : (string -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the registered glue host names. *)
