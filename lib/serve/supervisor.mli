(** Process supervision for the daemon: restart it after a crash with
    exponential backoff, give up on a crash loop, and stop with the
    child when it exits cleanly (0) or refuses its input (1, or 124 for
    bad arguments such as a world too small to calibrate). *)

type policy = {
  restart_limit : int;  (** abnormal exits tolerated within the window *)
  window_s : float;  (** sliding crash-loop window *)
  backoff : Webdep_faults.Retry.policy;  (** delay curve between restarts *)
}

val default_policy : policy
(** 5 exits in 30 s; backoff from 100 ms, doubling, 50 ms jitter. *)

type decision =
  | Exit of int  (** stop, exiting with the child's status *)
  | Restart of float  (** delay in seconds *)
  | Give_up

val decide :
  ?policy:policy -> now:float -> status:Unix.process_status -> float list -> decision
(** The child just ended with [status]; the list holds the times of
    earlier crashes.  Exit 0 (clean), and exit 1 or 124 (the child
    refused its input, which a restart would refuse again), stop the
    supervisor with that status.  Any other status is a crash at [now]: restart after a
    backoff that grows with the crashes inside the window, or give up
    when they exceed [restart_limit]. *)

val supervise : ?policy:policy -> (unit -> unit) -> int
(** Fork [child] and restart it after a crash.  Returns the exit code
    for the supervisor: 0 when the child exits cleanly, its status (1
    or 124) when it refused its input, 6 on a crash loop.  SIGTERM and
    SIGINT are forwarded to the child.  Call it before any domain is
    spawned: OCaml 5 cannot fork a process with running domains. *)
