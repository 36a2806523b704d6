(** The paper's published per-country centralization scores — Appendix F,
    Tables 5 (hosting), 6 (DNS), 7 (CA), and 8 (TLD).

    These are the ground truth the synthetic world is calibrated against
    and that EXPERIMENTS.md compares measured values to.  Each table lists
    (country code, 𝒮) in the paper's rank order (most centralized
    first). *)

type layer = Hosting | Dns | Ca | Tld

val layer_name : layer -> string

val layer_of_name : string -> (layer, string) result
(** The layer a word names, in any case ([hosting], [dns], [ca] or
    [tld]); otherwise a message that quotes the word and lists the
    four. *)

val all_layers : layer list

val table : layer -> (string * float) list
(** Ranked [(country code, score)] rows for a layer; 150 entries. *)

val score : layer -> string -> float option
(** Score of a country code in a layer. *)

val score_exn : layer -> string -> float

val rank : layer -> string -> int option
(** 1-based paper rank (1 = most centralized). *)

val mean : layer -> float
(** Mean score across the 150 countries (the paper's 𝒮̄). *)

val scores_in_country_order : layer -> string list -> float array
(** Scores aligned to a caller-supplied country order, for correlation
    against measured values.  @raise Not_found if a code is missing. *)
