(** World fingerprints: the parameters that key the validity of the
    file holding measured sites, the sweep checkpoint ([scores],
    [profile] and [serve] share its format).

    A run may reuse such a file only when every parameter that shapes a
    measured site record is identical: the world seed and toplist size
    (which fix toplists and provider mixes for every epoch), the
    geolocation accuracy (which fixes the geo-error draws), the way the
    world derives its sites from those ({!derivation}), and the
    fault-injection parameters (which fix per-site verdicts and retry
    outcomes).  Vantage and epoch vary {e within} one world; a
    checkpoint header adds the vantage next to these fields, and each
    checkpoint record carries its epoch. *)

type t = {
  world_seed : int;
  c : int;
  geo_accuracy : float;
  derivation : string;  (** always {!derivation} *)
  fault_seed : int;  (** 0 when fault injection is disabled *)
  fault_rate : float;  (** 0.0 when fault injection is disabled *)
  max_attempts : int;  (** retry budget; 1 when faults are disabled *)
}

val derivation : string
(** Names how a world derives its sites from (seed, [c], geolocation
    accuracy): ["canonical-walk/1"], where
    {!Webdep_worldgen.World.create} registers every network in one fixed
    walk.  Files written before it existed geolocated by call order;
    their headers lack it, so they load as a mismatch instead of mixing
    old verdicts with new ones.  A change to the derivation renames it. *)

val v :
  world_seed:int ->
  c:int ->
  geo_accuracy:float ->
  fault_seed:int ->
  fault_rate:float ->
  max_attempts:int ->
  t

val to_meta : t -> (string * Webdep_json.t) list
(** Header fields in a fixed order — checkpoints compare serialized
    headers byte-for-byte, so the order is part of the format. *)
