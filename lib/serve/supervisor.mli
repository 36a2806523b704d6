(** Process supervision for the daemon: restart it after an abnormal
    exit with exponential backoff, and give up on a crash loop. *)

type policy = {
  restart_limit : int;  (** abnormal exits tolerated within the window *)
  window_s : float;  (** sliding crash-loop window *)
  backoff : Webdep_faults.Retry.policy;  (** delay curve between restarts *)
}

val default_policy : policy
(** 5 exits in 30 s; backoff from 100 ms, doubling, 50 ms jitter. *)

type decision = Restart of float  (** delay in seconds *) | Give_up

val decide : ?policy:policy -> now:float -> float list -> decision
(** Given the times of past abnormal exits (the one just seen
    included), restart after a backoff that grows with the exits inside
    the window, or give up when they exceed [restart_limit]. *)

val supervise : ?policy:policy -> (unit -> unit) -> int
(** Fork [child] and restart it on abnormal exit.  Returns the exit code
    for the supervisor: 0 when the child exits cleanly, 6 on a crash
    loop.  SIGTERM and SIGINT are forwarded to the child.  Call it
    before any domain is spawned: OCaml 5 cannot fork a process with
    running domains. *)
