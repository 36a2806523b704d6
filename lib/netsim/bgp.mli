(** BGP announcements and RouteViews-style origin derivation.

    The paper's pfx2as input is CAIDA's dataset derived from RouteViews
    BGP table dumps: for each announced prefix, the origin AS of the
    best (or most-seen) route.  This module models that derivation: ASes
    announce prefixes with AS paths; best-route selection prefers the
    shortest path (lowest origin ASN breaking ties); the origin table is
    read off the best routes. *)

type t

val create : unit -> t

val announce : t -> Ipv4.prefix -> path:int list -> unit
(** Record an announcement.  @raise Invalid_argument on an empty path. *)

val derive_pfx2as : t -> int Prefix_table.t
(** The RouteViews/CAIDA prefix→origin-AS table: each announced
    prefix's best route's origin. *)

val moas : t -> (Ipv4.prefix * int list) list
(** Prefixes announced by multiple distinct origins (MOAS conflicts),
    with the origins. *)

val announcement_count : t -> int
val prefix_count : t -> int
