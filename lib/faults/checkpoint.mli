(** Checkpoint/resume for interrupted measurement sweeps.

    A checkpoint is a {!Segment}: a header with a schema tag and the
    sweep parameters, then one record per completed country shard.  The
    site codec is exact, so a resumed sweep reproduces the uninterrupted
    dataset structurally (and byte-identically once printed).

    Opening a checkpoint whose header does not match the current sweep
    parameters discards it: resuming under different parameters would
    silently mix two different worlds.  A torn trailing record (the
    writer was killed mid-write) is dropped on open. *)

type entry = {
  country : string;
  tally : Degrade.tally;
  data : Webdep.Dataset.country_data;
}

type t

val open_ : path:string -> meta:(string * Webdep_json.t) list -> t
(** Open (creating or resuming) a checkpoint.  [meta] identifies the
    sweep (world seed, size, epoch, vantage, fault parameters...); it
    becomes part of the header and must match exactly on resume. *)

val find : t -> string -> entry option
(** Completed entry for a country, if present.  Increments
    [checkpoint.countries_resumed] on a hit. *)

val loaded : t -> int
(** Number of entries recovered from the file on open. *)

val record : t -> entry -> unit
(** Append a completed country shard and fsync.  Thread-safe —
    callable from parallel sweep workers.  Increments
    [checkpoint.countries_written]. *)
