(** Content-language assignment for generated websites.

    The paper's §5.3.3 uses LangDetect to explain Afghanistan's reliance
    on Iranian providers: 31.4% of Afghan top sites are in Persian, and
    60.8% of those are hosted in Iran.  The generator therefore assigns
    each site a content language correlated with the site's hosting
    provider's home country, anchored so the Afghan numbers reproduce. *)

val primary : string -> string
(** Primary content language of a country's web (ISO 639-1-ish code):
    "fa" for IR, "ps" for AF, "de" for DE/AT, "ru" for RU, … defaults to
    "en" for countries without a specific entry. *)

val assign : cc:string -> provider_home:string -> domain:string -> string
(** Deterministic language for a site in country [cc] hosted by a
    provider based in [provider_home].  Most sites carry the country's
    primary language, a fraction are English, and sites hosted by a
    foreign partner lean toward the partner's language (the AF→IR case
    is anchored to the paper's percentages). *)

(** {1 Label numbers}

    A fixed numbering of every label {!assign} can return, so a site's
    language can be carried as an integer.  The language detector's
    confusions stay inside it (asserted in the test suite). *)

val label_count : int

val id : string -> int
(** The label's number, in [0 .. label_count - 1].
    @raise Not_found for a label {!assign} never returns. *)

val label : int -> string
(** The label a number stands for.
    @raise Invalid_argument outside [0 .. label_count - 1]. *)
