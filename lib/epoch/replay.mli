(** Replay a churn log epoch by epoch, maintaining one
    {!Webdep.Dataset.Tally} per (country, layer) with the country's site
    total, so every advance costs O(churn) tally updates, every rescore
    one walk of a country's count histogram, and every score read is
    bit-identical to a cold recomputation over the materialized dataset.

    Each site carries the tally ids it was counted under, computed once
    when it arrives; a removal updates by those ids without hashing the
    site's labels again.

    𝒮 is cached per (country, layer): an update marks it dirty and the
    next {!score} or {!hhi} refreshes it.  Three counters say what each
    read found: [store.metrics.full_solve] counts refreshes after updates
    that changed the provider support set (a provider appeared or
    vanished), [store.metrics.incremental] refreshes after updates that
    kept it, and [store.metrics.cache_hits] reads of a clean score. *)

type t

val start : Log.t -> t
(** State at the log's base epoch: per-country site tables (domain →
    sequence number and tally ids) and tallies, each baseline site
    tallied as it enters. *)

val replay : ?observe:(t -> unit) -> Log.t -> t
(** {!start}, then {!apply} every committed event in order.  [observe]
    runs on the state after the baseline and after each epoch — the hook
    for trend collection and per-epoch verification. *)

val apply : t -> Log.event -> unit
(** Advance one epoch: O(churn) site-table edits folded through the
    touched countries' tallies, which rescore on the next read.  All or
    nothing: a rejected event leaves the state as it was, so the
    corrected event can be applied next.  Records are checked in order,
    each against the site tables as the records before it left them.
    @raise Invalid_argument on an unknown country, a removal of an
    absent domain, an addition of a present one, or a non-increasing
    epoch number. *)

val append : t -> path:string -> Log.event -> unit
(** The writer of a log whose committed state [t] holds: {!apply} the
    event, then {!Log.append} it.  A refused event leaves the state and
    the file's bytes as they were, so the log never commits an epoch
    that no replay of it can apply.  If the write itself fails, the
    state is ahead of the file; reload the log.
    @raise Invalid_argument as {!apply}, or unless [path] ends in an
    intact commit of epoch [epoch t]. *)

val epoch : t -> int
(** Current (last applied) epoch. *)

val countries : t -> string list
(** Baseline country order. *)

val score : t -> Webdep.Dataset.layer -> string -> float
(** Centralization 𝒮 of one country at the current epoch, bit-identical
    to [Webdep.Metrics.centralization] over {!materialize}.
    @raise Not_found when the country is outside the baseline or has no
    labelled site. *)

val hhi : t -> Webdep.Dataset.layer -> string -> float
(** HHI, 𝒮 + 1/c, bit-identical to [Webdep_emd.Centralization.hhi].
    @raise Not_found as {!score}. *)

val insularity : t -> Webdep.Dataset.layer -> string -> float
(** Bit-identical to [Webdep.Regionalization.insularity]; 0 for a
    country with no site.
    @raise Not_found when the country is outside the baseline. *)

val scores : t -> Webdep.Dataset.layer -> (string * float) list
(** Every country's 𝒮 in baseline order (scoreless countries skipped). *)

val materialize : t -> Webdep.Dataset.country_data list
(** The current epoch's full site lists in canonical order (baseline
    order, additions in arrival order) — what a cold sweep of this epoch
    would have produced.  O(n log n); only verification, compaction and
    snapshot paths pay it. *)

val compact : Log.t -> keep_last:int -> Log.t
(** Collapse every epoch up to [head - keep_last] into a new baseline,
    keeping the trailing events.
    Replaying the compacted log yields bit-identical datasets and scores
    to the raw one; warm-start cost becomes O(world + keep_last·churn)
    however long the history was. *)
