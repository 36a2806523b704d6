(** The enriched measurement dataset the toolkit analyzes — one record per
    (country, website) with the per-layer provider labels recovered by the
    measurement pipeline (§3.4): AS organization of the hosting IP, AS
    organization of the nameserver IP, CCADB owner of the leaf
    certificate's CA, and the TLD. *)

type layer = Webdep_reference.Paper_scores.layer = Hosting | Dns | Ca | Tld

type entity = {
  name : string;  (** organization / CA owner / TLD label *)
  country : string;  (** the entity's home country (AS WHOIS, CA HQ, ccTLD) *)
}

type site = {
  domain : string;
  hosting : entity option;  (** None when resolution failed *)
  dns : entity option;
  ca : entity option;
  tld : entity;
  hosting_geo : string option;  (** geolocated country of the hosting IP *)
  ns_geo : string option;
  hosting_anycast : bool;
  ns_anycast : bool;
  language : string option;  (** LangDetect label of the page content *)
}

type country_data = { country : string; sites : site list }

type t
(** A dataset: one {!country_data} per country.

    Internally the sites are stored interned and integer-coded (one
    dense id per distinct entity and small string; per country, four
    int32 id columns, one word column and the domain names packed into
    one byte buffer, all Bigarrays off the OCaml heap) —
    {!country}/{!country_exn} decode the string-facing records on demand
    and memoize them, while the metric queries below run directly on the
    id columns.  Both views are byte-identical to the records passed to
    {!of_country_data}. *)

val of_country_data : country_data list -> t

type builder
(** Streaming constructor: encode one country at a time so the caller
    can release each string-form {!country_data} as soon as it is added,
    keeping peak heap bounded by one country rather than the world.
    [of_country_data] is [builder]/{!builder_add}/{!builder_finish}. *)

val builder : unit -> builder

val builder_add : builder -> country_data -> unit
(** Encode and absorb one country.  Must be called from a single domain
    (interner ids are assigned in first-encounter order, so the call
    order defines the ids). *)

val builder_finish : builder -> t

(** {2 Sites against the world's ids}

    A measuring lane need not build a {!site} per site: it can write
    each label as the number the world fixes for it, and the builder
    names each number once.  One country, one slot per toplist index,
    in columns off the OCaml heap that the dataset keeps: *)

type ids = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type domains
(** A country's domain names, packed into one off-heap byte buffer. *)

val domain_at : domains -> int -> string
(** The [i]-th domain name. *)

type world_ids = {
  w_country : string;
  w_domains : domains;
  w_hosting : ids;  (** hosting organization's id + 1; 0 = none *)
  w_dns : ids;  (** nameserver organization's id + 1; 0 = none *)
  w_ca : ids;  (** CA owner's id + 1; 0 = none *)
  w_tld : ids;
      (** TLD label's id + 1, or [-(j + 1)] for [w_other_tlds.(j)]: a
          TLD entity the world has no id for *)
  w_aux : words;
      (** {!pack_aux} of the geolocation verdicts' and the language's
          ids + 1 (0 = none) and the two anycast flags *)
  w_other_tlds : entity array;
}

val world_ids : country:string -> string array -> world_ids
(** One slot per domain, in order: the domains packed, every id column
    zero and no [w_other_tlds]. *)

type names = {
  org_entity : int -> entity;
  ca_entity : int -> entity;
  tld_entity : int -> entity;
  geo_label : int -> string;
  lang_label : int -> string;
}
(** What each kind of world id stands for. *)

val pack_aux : hgeo:int -> nsgeo:int -> lang:int -> hany:bool -> nany:bool -> int
(** One [w_aux] word.  Each id field holds 20 bits. *)

val decode_world_ids : names -> world_ids -> country_data
(** The string-form records the ids stand for. *)

val world_ids_fit : names -> world_ids -> bool
(** Whether {!builder_append} can fold [w] under [names]: every id is
    one that [names] maps (each function must raise [Invalid_argument]
    outside its range), no TLD is 0, and a negative one indexes
    [w_other_tlds].  Ids read from outside the program are checked with
    this first, since a builder cannot undo half a country. *)

val builder_append : builder -> names -> world_ids -> unit
(** [builder_add b (decode_world_ids names w)], without the records: the
    id arrays are rewritten in place into the dataset's ids (so [w]
    must not be used again) and kept.  Each (kind, world id) is named
    and interned once, the first time the builder meets it, so the
    dataset — interner ids included — is structurally equal to the one
    {!builder_add} would build, and the two calls may be mixed.  Same
    single-domain rule as {!builder_add}. *)

val countries : t -> string list
val country : t -> string -> country_data option
val country_exn : t -> string -> country_data
val size : t -> int
(** Total number of (country, site) records. *)

val site_count : t -> string -> int
(** Number of sites of a country, without decoding them.
    @raise Not_found if the country is absent. *)

val entity_of : site -> layer -> entity option
(** The site's label in a layer ([Some] always for [Tld]). *)

val distribution : t -> layer -> string -> Webdep_emd.Dist.t
(** Provider distribution (website counts per entity name) of a country
    in a layer; sites with a missing label are skipped.
    @raise Not_found if the country is absent or has no labelled site. *)

val counts_by_entity : t -> layer -> string -> (entity * int) list
(** Per-entity website counts, descending. *)

val merged_distribution : t -> layer -> Webdep_emd.Dist.t
(** All countries pooled — the paper's "Global Top 10k" marker uses the
    pooled view. *)

val entity_share : t -> layer -> string -> name:string -> float
(** Share of a country's websites labelled with entity [name]. *)

val home_label_count : t -> layer -> string -> int
(** Number of a country's sites whose layer label's home country is the
    country itself — the insularity numerator, computed on the int
    arrays without decoding.  @raise Not_found if the country is
    absent. *)

(** The dataset's interner pool, exposed so tests can check that its
    ids do not depend on [--jobs]. *)
module Compact : sig
  val entity_count : t -> int
  (** Distinct entities in a dataset's pool; valid ids are
      [0..entity_count-1]. *)

  val entities : t -> entity array
  (** The pool's id -> entity decode table, in id order.  Because ids
      are assigned during the sequential encode, this array is identical
      at any [--jobs]. *)
end

(** Mutable per-(entity) website tallies, maintained incrementally.

    A tally is the int-array core of {!counts_by_entity}: one dense id
    per distinct entity, keyed by the (name, country) pair itself, and a
    count per id.  Alongside the counts it keeps the count histogram —
    how many entities have exactly [k] websites, for every [k] up to the
    largest count — and the labelled total, all updated in O(1) by
    {!Tally.add_id}/{!Tally.remove_id}.  Updates go by id: a caller
    hashes an entity once, with {!Tally.id}, and keeps the id.

    {!Tally.score} depends only on the tallied multiset, never on the
    order it was built in, so a tally updated under churn scores
    bit-identically to a cold re-tally of the updated site list — what
    the churn-log replay ([Webdep_epoch.Replay]) reads its scores
    from. *)
module Tally : sig
  type nonrec t

  val create : unit -> t

  val id : t -> entity -> int
  (** The entity's dense id in this tally, minted with count zero on
      first sight.  An id stays the entity's for the tally's lifetime,
      so a caller that keeps the id a site was counted under can later
      update by it without hashing the entity again. *)

  val add_id : t -> int -> bool
  (** Count one more website for the id.  Returns [true] iff the
      support set grew (count went 0 to 1). *)

  val remove_id : t -> int -> bool
  (** Count one fewer website.  Returns [true] iff the support set
      shrank (count went 1 to 0).
      @raise Invalid_argument if the id's count is already zero. *)

  val labelled : t -> int
  (** Websites tallied: the sum of all counts, 𝒮's [c]. *)

  val score : t -> float
  (** Centralization 𝒮 from the count histogram: for each distinct
      count [k], largest first, [(k/c)^2] is computed once and added
      once per entity holding [k].  Equal counts add equal terms, so
      this is the same sequence of float additions
      [Webdep_emd.Centralization.score] runs over the count-descending
      {!counts_by_entity} of the same sites, and bit-identical to it.
      Costs one [pow] per distinct count; the walk builds no list and
      allocates nothing.
      @raise Not_found if no website is tallied. *)

  val home_count : t -> string -> int
  (** Total websites whose entity's home country is the given code (the
      numerator of regionalization insularity). *)
end
