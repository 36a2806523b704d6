(** Longest-prefix-match table — the pfx2as substrate.

    A binary trie on address bits mapping CIDR prefixes to values
    (origin ASNs in the pipeline).  Lookup walks at most 32 levels and
    returns the value of the most specific covering prefix, exactly like
    CAIDA's Routeviews prefix-to-AS dataset consumed by the paper. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> Ipv4.prefix -> 'a -> unit
(** Insert or replace the value at a prefix. *)

val lookup : 'a t -> Ipv4.addr -> 'a option
(** Longest-prefix match. *)

val size : 'a t -> int
(** Number of stored prefixes. *)

val fold : (Ipv4.prefix -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
