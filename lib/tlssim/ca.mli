(** Certificate authorities and the CCADB-style ownership database.

    The paper labels each leaf certificate with its "CA Owner" from the
    Common CA Database, per Ma et al. — multiple issuing intermediates
    roll up to one owning organization.  We model that two-level
    structure: issuers (intermediate CNs) map to owners. *)

type owner = {
  id : int;  (** dense identifier: the owner's place in registration order *)
  name : string;  (** e.g. "Let's Encrypt" *)
  country : string;  (** ISO alpha-2 of the owning organization *)
}

type t

val create : unit -> t

val register_owner : t -> name:string -> country:string -> owner
(** Idempotent by name.  The [n]-th owner registered (from 0) gets id
    [n]. *)

val register_issuer : t -> issuer_cn:string -> owner -> unit
(** Map an issuing intermediate's CN to its owner. *)

val owner_of_issuer : t -> string -> owner option
(** The CCADB lookup the pipeline performs on each leaf's issuer. *)

val owner_by_name : t -> string -> owner option

val owner : t -> int -> owner
(** The owner with this id.
    @raise Invalid_argument for an id no owner was registered under. *)

val owner_count : t -> int
val issuer_count : t -> int
val owners : t -> owner list
