(** The daemon's answers: one immutable table per (epoch, layer), built
    by {!make} before the daemon listens.  {!answer} is a pure function
    of the state and the request, shared by the daemon, the bench and
    the one-shot [webdep query], which is what makes daemon answers
    byte-identical to local ones. *)

type score_row = { s : float; hhi : float; insularity : float }

type t

val scored_of_log :
  Webdep_epoch.Log.t ->
  (string * (Webdep.Dataset.layer * (string * score_row) list) list) list
(** The scores-only epochs of a churn log, one per committed epoch and
    named ["e<k>"]: every country's row per layer, as [Replay] folds the
    log (countries without a labelled site are left out).  The log is
    replayed in one group of countries per [Webdep_par] lane, each group
    seeing every epoch; the rows are the same bits at any lane count.
    @raise Invalid_argument with the sequential [Replay.apply] error
    when a record does not apply (an unknown country, the removal of an
    absent domain, the addition of a present one). *)

val make :
  ?fingerprint:string ->
  ?scored:(string * (Webdep.Dataset.layer * (string * score_row) list) list) list ->
  (string * Webdep.Dataset.t) list ->
  t
(** Build every answer table: the measured epochs from their datasets'
    id columns, with no site record decoded (per layer and country, one
    [Dataset.counts_by_entity] gives the row and the counts top-k reads
    a prefix of; a country with sites but no label in the layer has no
    row and an empty top-k), then the scores-only epochs.  A repeated
    epoch name, or a repeated layer within a scores-only epoch, keeps
    the one loaded first.  [fingerprint] is ignored; it is accepted for
    callers written when the state carried one. *)

val countries : t -> string list
(** The first dataset's countries, in its order. *)

val epochs : t -> string list
(** Every loaded epoch name in load order, repeats included. *)

val warm : t -> unit
(** A no-op: [make] builds every table.  Kept for callers written when
    the first queries faulted scores in. *)

val answer : t -> Protocol.request -> Protocol.response
