(* Process supervision for the serving daemon.

   [supervise] forks the server into a child process and restarts it on
   abnormal exit with exponential backoff (reusing the [Retry] backoff
   curve, jitter included), so a crashed daemon comes back by itself —
   and, combined with a [--checkpoint] path, comes back without
   re-measuring the shards its predecessor finished.  A crash-loop
   detector bounds the damage: more than [restart_limit] abnormal
   exits inside a sliding [window_s] window means the crash is
   deterministic (bad flags, corrupt state, port taken) and restarting
   is noise — the supervisor gives up with a distinct exit code.

   Fork safety: [supervise] must be called before any domain is spawned
   (OCaml 5 forbids forking a process with running domains), which is
   why the CLI forks *first* and lets the child build the serving state.
   The decision core [decide] is pure so the crash-loop policy is unit
   testable without forking anything. *)

module Retry = Webdep_faults.Retry

let m_restarts = Webdep_obs.Metrics.counter "supervisor.restarts"
let m_give_ups = Webdep_obs.Metrics.counter "supervisor.give_ups"

(* Exit code of the supervisor when it detects a crash loop and stops
   restarting.  Distinct from the bench-regression (3), heap-budget (4)
   and retry-exhausted (5) codes. *)
let give_up_exit_code = 6

type policy = {
  restart_limit : int;  (* abnormal exits tolerated within the window *)
  window_s : float;  (* sliding crash-loop window *)
  backoff : Retry.policy;  (* delay curve between restarts *)
}

let default_policy =
  {
    restart_limit = 5;
    window_s = 30.0;
    backoff =
      {
        Retry.max_attempts = max_int;
        base_backoff_ms = 100.0;
        multiplier = 2.0;
        jitter_ms = 50.0;
        budget_ms = 0.0;
      };
  }

type decision = Restart of float  (** delay in seconds *) | Give_up

(* Pure decision core: given the wall clock and the timestamps of past
   abnormal exits (most recent first, the one that just happened
   included), restart after a backoff or give up.  The backoff attempt
   number is the count of *recent* failures, so a server that crashed
   twice yesterday and once now backs off like a first crash, not a
   third. *)
let decide ?(policy = default_policy) ~now failures =
  let recent = List.filter (fun t -> now -. t <= policy.window_s) failures in
  let n = List.length recent in
  if n > policy.restart_limit then Give_up
  else
    Restart
      (Retry.backoff_ms policy.backoff ~key:"supervisor" ~attempt:(max 1 n)
      /. 1000.0)

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED sg -> Printf.sprintf "signal %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped %d" sg

(* Fork [child] and babysit it.  Returns the exit code the supervisor
   itself should exit with: 0 when the child ends cleanly (normal drain
   or shutdown request), [give_up_exit_code] on a crash loop.  SIGTERM
   and SIGINT are forwarded to the child so `kill <supervisor>` drains
   the server instead of orphaning it. *)
let supervise ?(policy = default_policy) child =
  let child_pid = ref 0 in
  let forward sg = if !child_pid > 0 then try Unix.kill !child_pid sg with Unix.Unix_error _ -> () in
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle forward))
    [ Sys.sigterm; Sys.sigint ];
  let rec loop failures =
    (match Unix.fork () with
    | 0 ->
        (* The child must never return into the supervisor loop. *)
        (try
           child ();
           Stdlib.exit 0
         with e ->
           Printf.eprintf "webdep serve: %s\n%!" (Printexc.to_string e);
           Stdlib.exit 70)
    | pid -> child_pid := pid);
    let rec wait () =
      try snd (Unix.waitpid [] !child_pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    match wait () with
    | Unix.WEXITED 0 -> 0
    | status -> (
        let now = Unix.gettimeofday () in
        let failures = now :: failures in
        match decide ~policy ~now failures with
        | Give_up ->
            Webdep_obs.Metrics.incr m_give_ups;
            Printf.eprintf
              "webdep serve: child crash-looping (%s; %d abnormal exits in \
               %.0fs), giving up\n\
               %!"
              (status_string status)
              (List.length
                 (List.filter (fun t -> now -. t <= policy.window_s) failures))
              policy.window_s;
            give_up_exit_code
        | Restart delay ->
            Webdep_obs.Metrics.incr m_restarts;
            Printf.eprintf
              "webdep serve: child died (%s), restarting in %.2fs\n%!"
              (status_string status) delay;
            Unix.sleepf delay;
            loop failures)
  in
  loop []
