(** Checkpoint/resume for interrupted measurement sweeps.

    A checkpoint is a {!Segment}: a header with a schema tag and the
    parameters of the sweeps that share it, then one record per
    completed (epoch, country) shard: its tally and its
    {!Webdep.Dataset.world_ids} as the measuring lane wrote them.  The
    sweeps of several epochs append to one file.  The codec is exact, so
    a resumed sweep folds the ids a lane would and reproduces the
    uninterrupted dataset structurally (and byte-identically once
    printed).

    Opening a checkpoint whose header does not match the current
    parameters (or schema) discards it: resuming under different
    parameters would silently mix two different worlds.  A torn trailing
    record (the writer was killed mid-write) is dropped on open. *)

type entry = {
  epoch : string;
  tally : Degrade.tally;
  ids : Webdep.Dataset.world_ids;  (** its [w_country] is the shard's country *)
}

type t

val open_ : path:string -> meta:(string * Webdep_json.t) list -> t
(** Open (creating or resuming) a checkpoint.  [meta] identifies the
    sweeps that may share the file (world fingerprint, vantage...); it
    becomes part of the header and must match exactly on resume.  Only
    each record's (epoch, country) key is decoded here. *)

val find :
  t -> epoch:string -> fits:(Webdep.Dataset.world_ids -> bool) -> string -> entry option
(** The completed entry for (epoch, country), decoded on the call; a
    record that does not decode, or whose ids [fits] refuses, counts as
    absent.  Increments [checkpoint.countries_resumed] on a hit. *)

val record : t -> entry -> unit
(** Encode a completed shard (so its ids may then be folded), append
    it and fsync.  Thread-safe — callable from parallel sweep workers.
    Increments [checkpoint.countries_written]. *)
