module Json = Webdep_json

type t = {
  world_seed : int;
  c : int;
  geo_accuracy : float;
  derivation : string;
  fault_seed : int;
  fault_rate : float;
  max_attempts : int;
}

let derivation = "canonical-walk/1"

let v ~world_seed ~c ~geo_accuracy ~fault_seed ~fault_rate ~max_attempts =
  { world_seed; c; geo_accuracy; derivation; fault_seed; fault_rate; max_attempts }

let to_meta t =
  [
    ("world_seed", Json.Int t.world_seed);
    ("c", Json.Int t.c);
    ("geo_accuracy", Json.Float t.geo_accuracy);
    ("world_derivation", Json.String t.derivation);
    ("fault_seed", Json.Int t.fault_seed);
    ("fault_rate", Json.Float t.fault_rate);
    ("max_attempts", Json.Int t.max_attempts);
  ]
