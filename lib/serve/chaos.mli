(** Wire-level chaos client: one request per connection, sabotaged as
    {!Webdep_faults.Wire} plans for its key.  Verdicts are a pure hash
    of (seed, key), so a storm replays identically. *)

type outcome =
  | Reply of Protocol.response
  | Injected  (** the harness sabotaged the exchange; no reply was owed *)
  | Refused of string  (** connect failed: server down or restarting *)
  | Broken of string  (** a reply was owed but not delivered intact *)

val call :
  Webdep_faults.Fault_plan.t ->
  key:string ->
  string ->
  Protocol.request ->
  Webdep_faults.Wire.action * outcome
(** Send [req] to the daemon at the address spec with the planned
    mischief, and report the action taken and what came back. *)
