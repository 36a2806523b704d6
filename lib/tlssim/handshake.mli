(** TLS handshake simulation — the ZGrab2 substrate.

    A certificate store maps (address, SNI) to the leaf certificate the
    server would present.  Certificates are installed per site; the same
    site served from several addresses (CDN POPs) presents the same
    leaf. *)

type t

val create : ?certs:int -> unit -> t
(** An empty store sized for [certs] certificates (16 by default); it
    grows past that. *)

val install : t -> domain:string -> Cert.t -> unit
(** Install the leaf presented for [domain] (any serving address). *)

val handshake :
  ?faults:Webdep_faults.Fault_plan.t ->
  ?attempt:int ->
  t ->
  addr:Webdep_netsim.Ipv4.addr ->
  sni:string ->
  Cert.t option
(** Attempt a TLS handshake with SNI; [None] models no TLS on that name.
    The address is accepted opaquely — content and certificate follow the
    SNI, as on a multi-tenant CDN.  [?faults] (default: none) may
    truncate or reject the handshake for this [sni] at this [attempt]
    (default 0); the caller retries by re-invoking with a higher
    attempt number. *)

val cert_count : t -> int
