(* Open-loop load against a real [webdep serve] child process.

   One thread drives two connections, polling them without sleeping.
   Every request has a due time on a fixed schedule (request j of a rung
   is due at start + j / rate) and is sent when due whether or not
   earlier replies have come back, so a stalled daemon builds a queue
   instead of slowing the offered load.
   Frames are encoded before the clock starts.  A request's latency runs
   from its due time to its reply, so time the generator itself ran late
   counts against the daemon too; that lateness is reported separately,
   and a rung whose lateness p99 exceeds the SLO is flagged invalid
   rather than failed. *)

module P = Webdep_serve.Protocol
open Common

let slo_s = 1e-3
let slo_failed_ratio = 0.001

(* --- the daemon child ------------------------------------------------------ *)

type daemon = { pid : int; out : in_channel; socket : string; metrics : string option }

let live : daemon list ref = ref []

(* The CLI sits next to this executable in the dune build tree:
   _build/default/bench/perf/main.exe -> _build/default/bin/webdep_cli.exe *)
let cli () =
  let root = Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)) in
  let path = Filename.concat (Filename.concat root "bin") "webdep_cli.exe" in
  if not (Sys.file_exists path) then begin
    Printf.eprintf "perf: daemon binary %s is missing (dune build bin/webdep_cli.exe)\n%!" path;
    exit 2
  end;
  path

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

(* Spawn [webdep serve] and wait for its "listening" line; returns the
   daemon and the seconds from spawn to ready. *)
let spawn ?(metrics = false) args =
  let exe = cli () in
  let base = out_path "serve" in
  let socket = base ^ ".sock" in
  let metrics = if metrics then Some (base ^ ".metrics.json") else None in
  let argv =
    [ exe; "serve"; "--socket"; socket ]
    @ (match metrics with Some p -> [ "--metrics"; p ] | None -> [])
    @ args
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid = Unix.create_process exe (Array.of_list argv) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let d = { pid; out = Unix.in_channel_of_descr rd; socket; metrics } in
  live := d :: !live;
  let ready, _, _ = Unix.select [ rd ] [] [] 120.0 in
  match if ready = [] then None else In_channel.input_line d.out with
  | Some line when String.starts_with ~prefix:"webdep serve: listening" line -> (d, now_s () -. t0)
  | _ -> failwith "webdep serve did not report listening"

(* Shutdown -> Bye, then reap the child.  True when the daemon said bye
   and exited 0. *)
let stop d =
  let c = Webdep_serve.Client.connect d.socket in
  let reply = Webdep_serve.Client.request c P.Shutdown in
  Webdep_serve.Client.close c;
  let _, status = Unix.waitpid [] d.pid in
  close_in d.out;
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  reply = P.Bye && status = Unix.WEXITED 0

(* --- one rung ---------------------------------------------------------------- *)

(* Pre-encoded requests of one rung.  Request j goes to connection
   [j land 1]; [bufs.(c)] holds that connection's frames back to back,
   frame i spanning [offs.(c).(i), offs.(c).(i+1)).  [expect.(j)] is the
   reply payload request j must get, or "" when j is not checked. *)
type plan = {
  rate : float;
  n : int;
  bufs : Bytes.t array;
  offs : int array array;
  expect : string array;
}

let check_every = 64

(* [frame j] is request j, encoded and framed; [answer j] the expected
   reply payload, asked for every [check_every]-th request only. *)
let plan ~rate ~count:n ~frame ~answer =
  let bufs = [| Buffer.create (16 * n); Buffer.create (16 * n) |] in
  let offs = [| Array.make ((n / 2) + 2) 0; Array.make ((n / 2) + 2) 0 |] in
  let expect = Array.make n "" in
  for j = 0 to n - 1 do
    let c = j land 1 in
    Buffer.add_string bufs.(c) (frame j);
    offs.(c).((j lsr 1) + 1) <- Buffer.length bufs.(c);
    if j mod check_every = 0 then expect.(j) <- answer j
  done;
  { rate; n; bufs = Array.map Buffer.to_bytes bufs; offs; expect }

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
}

let connect socket =
  let c = Webdep_serve.Client.connect socket in
  Unix.set_nonblock c.Webdep_serve.Client.fd;
  { fd = c.Webdep_serve.Client.fd; rbuf = Bytes.create 65536; rlen = 0 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type rung = {
  r_rate : float;
  attempted : int;
  failed : int;  (* Overloaded, Error, Draining, mismatched or missing *)
  checked : int;
  mismatched : int;
  p50 : float;  (* seconds from due time to reply, answered requests *)
  p99 : float;
  window_p50 : float array;  (* p50 of each [window_s] of due times *)
  window_p99 : float array;  (* p99 of each [window_s] of due times *)
  late_p99 : float;  (* seconds from due time to send *)
  resync : bool;  (* connections must be reopened before the next rung *)
}

let window_s = 0.5
let p50 r = r.p50
let p99 r = r.p99
let late_p99 r = r.late_p99
let failed_ratio r = ratio (float_of_int r.failed) (float_of_int r.attempted)
let valid r = late_p99 r <= slo_s

(* The rung's tail: the p99 of each half-second window, and of those the
   lower quartile.  On a small shared machine the host stalls the
   processes for seconds at a time, which moves a whole rung's p99, and
   even the median window's, several-fold from run to run; a tail the
   daemon causes itself (a pause every batch, a stall every few ms)
   lifts every window and so still moves this number.  The whole-rung
   p99 is reported beside it. *)
let tail r =
  if Array.length r.window_p99 = 0 then r.p99 else quantile r.window_p99 0.25

let answered a = Array.of_seq (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq a))

(* How far a rung is from the SLO: <= 1 means it meets it. *)
let excess r = Float.max (tail r /. slo_s) (failed_ratio r /. slo_failed_ratio)

let run_rung conns (pl : plan) ~drain_s =
  let n = pl.n in
  let lat = Array.make n Float.nan in
  let late = Array.make n 0.0 in
  let sent = [| 0; 0 |] and wpos = [| 0; 0 |] and recvd = [| 0; 0 |] in
  let desync = [| false; false |] in
  let failed = ref 0 and checked = ref 0 and mismatched = ref 0 in
  let per_conn c = (n + 1 - c) / 2 in
  let t0 = now_s () +. 1e-3 in
  let due j = t0 +. (float_of_int j /. pl.rate) in
  let last_due = due (n - 1) in
  let finished () = recvd.(0) = per_conn 0 && recvd.(1) = per_conn 1 in
  let read_replies c now =
    let cn = conns.(c) in
    (try
       let continue = ref true in
       while !continue do
         if cn.rlen = Bytes.length cn.rbuf then begin
           let nb = Bytes.create (2 * Bytes.length cn.rbuf) in
           Bytes.blit cn.rbuf 0 nb 0 cn.rlen;
           cn.rbuf <- nb
         end;
         let k = Unix.read cn.fd cn.rbuf cn.rlen (Bytes.length cn.rbuf - cn.rlen) in
         if k = 0 then continue := false else cn.rlen <- cn.rlen + k
       done
     with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    let pos = ref 0 in
    let stop = ref false in
    while not !stop do
      if cn.rlen - !pos < 4 then stop := true
      else begin
        let len = Int32.to_int (Bytes.get_int32_be cn.rbuf !pos) in
        if cn.rlen - !pos < 4 + len then stop := true
        else begin
          let j = (2 * recvd.(c)) + c in
          recvd.(c) <- recvd.(c) + 1;
          lat.(j) <- now -. due j;
          (match Bytes.get cn.rbuf (!pos + 4) with
          | '\005' ->
              (* Overloaded: a shed reply can overtake replies still queued
                 on this connection, so later replies no longer line up
                 with their requests for the byte check. *)
              incr failed;
              desync.(c) <- true;
              lat.(j) <- Float.nan
          | '\007' | '\008' ->
              incr failed;
              lat.(j) <- Float.nan
          | _ ->
              let want = pl.expect.(j) in
              if want <> "" && not desync.(c) then begin
                incr checked;
                if not (String.equal want (Bytes.sub_string cn.rbuf (!pos + 4) len)) then begin
                  incr mismatched;
                  incr failed
                end
              end);
          pos := !pos + 4 + len
        end
      end
    done;
    if !pos > 0 then begin
      Bytes.blit cn.rbuf !pos cn.rbuf 0 (cn.rlen - !pos);
      cn.rlen <- cn.rlen - !pos
    end
  in
  let send c now =
    let due_total = min n (1 + int_of_float (Float.floor ((now -. t0) *. pl.rate))) in
    let target = if now < t0 then 0 else (due_total + 1 - c) / 2 in
    for i = sent.(c) to target - 1 do
      let j = (2 * i) + c in
      late.(j) <- now -. due j
    done;
    if target > sent.(c) then sent.(c) <- target;
    let stop_at = pl.offs.(c).(sent.(c)) in
    try
      while wpos.(c) < stop_at do
        let w = Unix.single_write conns.(c).fd pl.bufs.(c) wpos.(c) (stop_at - wpos.(c)) in
        wpos.(c) <- wpos.(c) + w
      done
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let deadline = last_due +. drain_s in
  let now = ref (now_s ()) in
  while (not (finished ())) && !now < deadline do
    send 0 !now;
    send 1 !now;
    (* Poll, never sleep: a generator that sleeps between sends wakes
       late by the VM's wake-up time, which follows the host's load.
       Writes the socket refused are retried on the next pass. *)
    let readable, _, _ =
      try Unix.select [ conns.(0).fd; conns.(1).fd ] [] [] 0.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    now := now_s ();
    if List.memq conns.(0).fd readable then read_replies 0 !now;
    if List.memq conns.(1).fd readable then read_replies 1 !now
  done;
  let missing = n - recvd.(0) - recvd.(1) in
  let all = sorted (answered lat) in
  let per_window = max 1 (int_of_float (window_s *. pl.rate)) in
  let windows q =
    Array.init (n / per_window) (fun w -> quantile (answered (Array.sub lat (w * per_window) per_window)) q)
  in
  {
    r_rate = pl.rate;
    attempted = n;
    failed = !failed + missing;
    checked = !checked;
    mismatched = !mismatched;
    p50 = quantile_sorted all 0.5;
    p99 = quantile_sorted all 0.99;
    window_p50 = windows 0.5;
    window_p99 = windows 0.99;
    late_p99 = quantile late 0.99;
    resync = missing > 0 || desync.(0) || desync.(1);
  }

(* --- the ladder -------------------------------------------------------------- *)

(* The highest offered rate meeting the SLO: take the highest rung that
   meets it and interpolate toward the next valid rung above, on the
   rungs' SLO excess and in log space, because p99 grows by orders of
   magnitude once a queue builds.  Rungs where the generator ran late
   say nothing about the daemon and are skipped. *)
let max_rate_meeting_slo rungs =
  let rungs = List.filter valid rungs in
  let rec last_pass best = function
    | [] -> best
    | r :: rest -> last_pass (if excess r <= 1.0 then Some r else best) rest
  in
  match last_pass None rungs with
  | None -> 0.0
  | Some lo -> (
      match List.find_opt (fun r -> r.r_rate > lo.r_rate) rungs with
      | None -> lo.r_rate
      | Some hi ->
          let e_lo = Float.max 1e-3 (excess lo) and e_hi = excess hi in
          lo.r_rate
          +. ((hi.r_rate -. lo.r_rate) *. (-.Float.log e_lo /. (Float.log e_hi -. Float.log e_lo))))

let describe r =
  Printf.sprintf
    "rate %6.0f: p50 %7.1fus p99 %8.1fus tail %8.1fus late.p99 %6.1fus failed %d/%d (checked %d, mismatched %d)%s\n  window p50s (us): %s\n  window p99s (us): %s"
    r.r_rate (1e6 *. p50 r) (1e6 *. p99 r) (1e6 *. tail r) (1e6 *. late_p99 r) r.failed r.attempted r.checked
    r.mismatched
    (if valid r then "" else " INVALID")
    (String.concat " " (Array.to_list (Array.map (fun x -> Printf.sprintf "%.1f" (1e6 *. x)) r.window_p50)))
    (String.concat " " (Array.to_list (Array.map (fun x -> Printf.sprintf "%.0f" (1e6 *. x)) r.window_p99)))

(* Run each rung in order; a rung's frames are encoded just before its
   clock starts, so only one rung's plan is in memory at a time. *)
let run_ladder socket plans =
  let conns = ref [| connect socket; connect socket |] in
  let rungs =
    List.map
      (fun plan ->
        let r = run_rung !conns (plan ()) ~drain_s:2.0 in
        log "%s" (describe r);
        if r.resync then begin
          Array.iter close_conn !conns;
          conns := [| connect socket; connect socket |]
        end;
        r)
      plans
  in
  Array.iter close_conn !conns;
  rungs
