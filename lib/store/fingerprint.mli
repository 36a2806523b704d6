(** World fingerprints: the content hash that keys measurement-store
    validity.

    Two runs may share stored measurements only when every parameter
    that shapes a measured site record is identical: the world seed and
    toplist size (which fix toplists and provider mixes for every
    epoch), the geolocation accuracy (which fixes the geo-error draws),
    and the fault-injection parameters (which fix per-site verdicts and
    retry outcomes).  Vantage, resolution mode and epoch vary {e within}
    one world, so they live in the per-entry key, not here. *)

type t = {
  world_seed : int;
  c : int;
  geo_accuracy : float;
  fault_seed : int;  (** 0 when fault injection is disabled *)
  fault_rate : float;  (** 0.0 when fault injection is disabled *)
  max_attempts : int;  (** retry budget; 1 when faults are disabled *)
}

val v :
  world_seed:int ->
  c:int ->
  geo_accuracy:float ->
  fault_seed:int ->
  fault_rate:float ->
  max_attempts:int ->
  t

val equal : t -> t -> bool

val to_meta : t -> (string * Webdep_json.t) list
(** Header fields for the spill file, in a fixed order — the store
    compares serialized header lines byte-for-byte, so the order is part
    of the format. *)
