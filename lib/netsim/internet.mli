(** The assembled simulated Internet.

    Registers provider networks (organization + ASN + address space) and
    answers the lookups the measurement pipeline performs: address →
    origin AS → organization, address → country, address → anycast?.
    The BGP table those networks announce is derived on demand
    ({!bgp}).

    Address space is allocated deterministically: each network's
    per-country point of presence receives its own /20 carved from a
    global allocator that hands out consecutive blocks from 0.1.0.0,
    geolocated to that country.  Anycast networks' prefixes are flagged
    anycast and geolocate to the HQ country (as commercial databases
    typically pin anycast blocks to the registrant).

    Every allocated /20 has one record — origin AS, organization, the
    geolocation database's verdict (drawn from {!Geo_db}'s error model at
    registration) and the anycast flag — in an array indexed by block
    number, so each lookup is one array read.  These records are the
    only AS and organization labels: there is no separate AS-to-org
    table.  Addresses outside the allocated blocks answer [None] /
    [false].

    Organizations and geolocation verdicts also have dense numbers, so a
    caller can label a site with integers and turn them back into names
    later: an organization's is its {!Org.id} ({!org}), a verdict's is
    its place in the order registration first drew it ({!geo_id},
    {!geo_name}). *)

type t

type network = {
  org : Org.t;
  asn : int;
  pops : (string * Ipv4.prefix) list;
      (** points of presence: country code → prefix; the HQ country is
          always present and listed first *)
  pop_index : (string, Ipv4.prefix) Hashtbl.t option;
      (** [pops] as a country-keyed index, built at registration for a
          network registered with a [presence] list ([None] for the
          others, whose only pop is HQ); treat as read-only *)
  hq_prefix : Ipv4.prefix;  (** the HQ pop's prefix (head of [pops]) *)
  anycast : bool;
}

val pop_near : network -> near:string -> Ipv4.prefix
(** The network's prefix in [near], falling back to HQ — an indexed
    lookup replacing the former linear scan over [pops]. *)

val create : ?geo_accuracy:float -> ?networks:int -> Webdep_stats.Rng.t -> t
(** [geo_accuracy] feeds the {!Geo_db} error model (default 1.0).
    [networks] sizes the name index for about that many registrations
    (default 16); it grows past them as needed. *)

val register_network :
  t -> name:string -> country:string -> ?anycast:bool -> ?presence:string list -> unit -> network
(** Register a provider network.  [presence] lists extra countries with
    local points of presence (deduplicated; HQ implied).  Registering the
    same [name] twice returns the network registered first.  The [n]-th
    network registered (from 0) gets org id [n] and ASN [64512 + n]; its
    organization is named [name] and homed in [country]. *)

val find_network : t -> string -> network option
(** Lookup a registered network by organization name. *)

val org : t -> int -> Org.t
(** The organization with this {!Org.id}.
    @raise Invalid_argument for an id no network was registered under. *)

val address_in : t -> network -> near:string -> Webdep_stats.Rng.t -> Ipv4.addr
(** An address of the network, preferring the point of presence in
    [near] (the client's country) and falling back to HQ — how a CDN maps
    users to front-ends. *)

val origin_as : t -> Ipv4.addr -> int option
(** pfx2as lookup: the origin AS of the address's /20. *)

val org_of_addr : t -> Ipv4.addr -> Org.t option
(** pfx2as + AS2Org composition: the "AS Organization" label the paper
    assigns to hosting/DNS IPs. *)

val geolocate : t -> Ipv4.addr -> string option
(** NetAcuity-like lookup (subject to the error model). *)

val geo_id : t -> Ipv4.addr -> int
(** The number of {!geolocate}'s verdict, or [-1] where it answers
    [None]. *)

val geo_name : t -> int -> string
(** The verdict a {!geo_id} number stands for.
    @raise Invalid_argument for a number no block carries. *)

val is_anycast_addr : t -> Ipv4.addr -> bool
(** Whether the address lies in an anycast network's prefix — the
    bgp.tools anycast-prefixes substrate. *)

val network_count : t -> int

val bgp : t -> Bgp.t
(** A fresh BGP table holding every registered network's announcements:
    each prefix through a tier-1 transit, origin last.  Deriving origins
    from it ({!Bgp.derive_pfx2as}) reproduces {!origin_as} (asserted in
    the test suite). *)
