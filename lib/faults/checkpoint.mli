(** Checkpoint/resume for interrupted measurement sweeps.

    A checkpoint is a {!Segment}: a header with a schema tag and the
    parameters of the sweeps that share it, then one record per
    completed (epoch, country) shard.  The sweeps of several epochs
    append to one file.  The site codec is exact, so a resumed sweep
    reproduces the uninterrupted dataset structurally (and
    byte-identically once printed).

    Opening a checkpoint whose header does not match the current
    parameters discards it: resuming under different parameters would
    silently mix two different worlds.  A torn trailing record (the
    writer was killed mid-write) is dropped on open. *)

type entry = {
  epoch : string;
  country : string;
  tally : Degrade.tally;
  data : Webdep.Dataset.country_data;
}

type t

val open_ : path:string -> meta:(string * Webdep_json.t) list -> t
(** Open (creating or resuming) a checkpoint.  [meta] identifies the
    sweeps that may share the file (world seed, size, vantage, fault
    parameters...); it becomes part of the header and must match
    exactly on resume.  Only each record's (epoch, country) key is
    decoded here. *)

val find : t -> epoch:string -> string -> entry option
(** The completed entry for (epoch, country), decoded on the call; a
    record that does not decode counts as absent.  Increments
    [checkpoint.countries_resumed] on a hit. *)

val record : t -> entry -> unit
(** Append a completed shard and fsync.  Thread-safe — callable from
    parallel sweep workers.  Increments [checkpoint.countries_written]. *)
