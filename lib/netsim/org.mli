(** Organizations — the entities CAIDA's AS-to-Organization dataset maps
    ASes onto.  In the paper a "hosting provider" is the AS organization of
    the IP serving the content, and its country is the organization's
    WHOIS country. *)

type t = {
  id : int;  (** dense identifier: the network's place in registration order *)
  name : string;  (** e.g. "Cloudflare, Inc." *)
  country : string;  (** ISO alpha-2 of the org's registration (HQ) *)
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
