(** Durable warm-state snapshots: one {!Webdep_faults.Segment} whose
    header names the world fingerprint and country list and whose
    records are one (epoch, country) shard each, so a restarted daemon
    skips the two-epoch sweep.  Writes are atomic; a torn file keeps its
    intact shards. *)

type shard = { epoch : string; data : Webdep.Dataset.country_data }

type load =
  | Absent
  | Rejected  (** unreadable header, or another schema, world or country list *)
  | Loaded of shard list
  | Torn of shard list  (** the intact prefix of a truncated or corrupted file *)

val save : path:string -> fingerprint:string -> (string * Webdep.Dataset.t) list -> unit
(** Every (epoch, country) shard of the datasets, in the first dataset's
    country order, written atomically. *)

val load : path:string -> fingerprint:string -> countries:string list -> load

val to_datasets :
  epochs:string list ->
  countries:string list ->
  fill:(string -> string -> Webdep.Dataset.country_data) ->
  shard list ->
  (string * Webdep.Dataset.t) list
(** Regroup shards into one dataset per epoch, in [countries] order;
    [fill epoch country] supplies each shard the list lacks. *)
