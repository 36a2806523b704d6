(** Blocking client for the dependence-query daemon, with pipelining for
    load generation and a retrying one-shot {!call}. *)

type t = private { fd : Unix.file_descr; mutable rbuf : Bytes.t; mutable rlen : int }
(** [fd] is the connected socket; [rbuf.[0..rlen)] holds reply bytes
    read but not yet decoded. *)

val connect : ?attempts:int -> string -> t
(** Connect to an address spec (see {!Addr}), retrying a refused or
    missing socket every 50 ms, [attempts] times in all (default 40).
    @raise Unix.Unix_error when the last attempt fails. *)

val write_all : Unix.file_descr -> string -> unit

val recv : t -> Protocol.response
(** The next reply.
    @raise Protocol.Protocol_error on a corrupt reply or a closed
    connection. *)

val request : t -> Protocol.request -> Protocol.response

val pipeline : t -> Protocol.request list -> Protocol.response list
(** Send every request in one write, then read the replies, which the
    daemon sends in request order. *)

val close : t -> unit

val call :
  ?max_retries:int ->
  ?timeout_s:float ->
  string ->
  Protocol.request ->
  (Protocol.response, string) result
(** One request on a fresh connection per attempt.  A refused or reset
    connection, [Overloaded] and [Draining] are retried with exponential
    backoff and deterministic jitter, up to [max_retries] retries
    (default 4) within [timeout_s] seconds (default 10); the last
    failure comes back as [Error]. *)
