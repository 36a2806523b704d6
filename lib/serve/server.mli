(** Batched dependence-query daemon: one select loop over every
    connection, an admission queue that sheds past [max_queue] with an
    immediate [Overloaded], batches of up to 256 requests, and a bounded
    response cache.  Connections whose first byte is ['{'] speak
    newline-delimited JSON instead of binary frames. *)

(** {2 Engine} *)

type engine
(** One state and its response cache. *)

val engine : State.t -> engine

val answer_payload : engine -> string -> string
(** The encoded reply to an encoded request, from the cache when it has
    it.  A request that does not decode gets an encoded [Error]. *)

val cache_capacity : int
(** Entries per cache generation; the cache holds at most two. *)

val cache_size : engine -> int

(** {2 Daemon} *)

type config

val config : ?max_queue:int -> ?drain_delay_s:float -> string -> config
(** [config listen]: a Unix-socket path or ["tcp:PORT"].  [max_queue]
    (default 1024) bounds the admission queue; [drain_delay_s] sleeps
    before each batch, for tests that need a backlog.
    @raise Invalid_argument when [max_queue < 1]. *)

val request_drain : unit -> unit
(** Ask the running server to drain: queued batches are answered, new
    requests get [Draining], then {!run} returns. *)

val run : ?on_ready:(unit -> unit) -> ?handle_signals:bool -> config -> State.t -> unit
(** Serve until a [Shutdown] request or a drain.  [on_ready] runs once
    the socket listens; [handle_signals] drains on SIGTERM/SIGINT.  The
    daemon writes no file: whatever it reuses across restarts (the sweep
    checkpoint) is complete before it listens.  Every connection is
    closed and a Unix socket path unlinked however the loop ends. *)
