(* Blocking client for the dependence-query daemon: framed requests over
   a Unix or loopback-TCP socket, with pipelining for load generation. *)

module P = Protocol

type t = { fd : Unix.file_descr; mutable rbuf : Bytes.t; mutable rlen : int }

let connect ?(attempts = 40) spec =
  let addr = Addr.of_spec spec in
  let rec go n =
    let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Addr.sockaddr addr) with
    | () -> { fd; rbuf = Bytes.create 65536; rlen = 0 }
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
      when n > 1 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.05);
        go (n - 1)
  in
  go attempts

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      let w = Unix.write fd b off (len - off) in
      go (off + w)
  in
  go 0

let send t req = write_all t.fd (P.frame (P.encode_request req))

let recv t =
  let rec go () =
    match P.next_frame t.rbuf 0 t.rlen with
    | Some payload -> (
        let n = 4 + String.length payload in
        Bytes.blit t.rbuf n t.rbuf 0 (t.rlen - n);
        t.rlen <- t.rlen - n;
        match P.decode_response payload with
        | Ok resp -> resp
        | Error msg -> raise (P.Protocol_error msg))
    | None ->
        if t.rlen + 65536 > Bytes.length t.rbuf then begin
          let nb = Bytes.create (2 * (t.rlen + 65536)) in
          Bytes.blit t.rbuf 0 nb 0 t.rlen;
          t.rbuf <- nb
        end;
        let n = Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen) in
        if n = 0 then raise (P.Protocol_error "connection closed by server");
        t.rlen <- t.rlen + n;
        go ()
  in
  go ()

let request t req =
  send t req;
  recv t

(* Send every request in one write, then collect the replies in order —
   the server answers strictly in arrival order per connection. *)
let pipeline t reqs =
  let b = Buffer.create 1024 in
  List.iter (fun r -> Buffer.add_string b (P.frame (P.encode_request r))) reqs;
  write_all t.fd (Buffer.contents b);
  List.map (fun _ -> recv t) reqs

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- retry/deadline budget ---------------------------------------------- *)

module Retry = Webdep_faults.Retry

let m_call_retries = Webdep_obs.Metrics.counter "client.call.retries"
let m_call_exhausted = Webdep_obs.Metrics.counter "client.call.exhausted"

(* One whole attempt: fresh connection, one request, one reply.  A fresh
   connection per attempt is deliberate — the failure modes worth
   retrying (server restarting, draining, connection reset mid-reply)
   all leave the old connection useless. *)
let attempt_once spec req =
  match connect ~attempts:1 spec with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("connect: " ^ Unix.error_message e)
  | t -> (
      match request t req with
      | P.Overloaded ->
          close t;
          Error "overloaded"
      | P.Draining ->
          close t;
          Error "draining"
      | resp ->
          close t;
          Ok resp
      | exception P.Protocol_error msg ->
          close t;
          Error msg
      | exception Unix.Unix_error (e, _, _) ->
          close t;
          Error (Unix.error_message e))

(* [call spec req] with a real (slept) retry budget: every failure a
   restart or overload can cause — connection refused, socket gone,
   reset mid-reply, an [Overloaded] shed or a [Draining] refusal — is
   retried with exponential backoff and deterministic jitter (hash of
   the request key, so two clients hammering the same server do not
   retry in lockstep) until [max_retries] attempts or the [timeout_s]
   deadline run out.  Returns the last failure as [Error]. *)
let call ?(max_retries = 4) ?(timeout_s = 10.0) spec req =
  let policy =
    { (Retry.of_max_retries max_retries) with budget_ms = 0.0 }
  in
  let key = spec ^ "|" ^ P.encode_request req in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go attempt =
    match attempt_once spec req with
    | Ok resp -> Ok resp
    | Error msg ->
        if attempt + 1 >= policy.Retry.max_attempts then begin
          Webdep_obs.Metrics.incr m_call_exhausted;
          Error (Printf.sprintf "%s (after %d attempts)" msg (attempt + 1))
        end
        else begin
          let delay_s =
            Retry.backoff_ms policy ~key ~attempt:(attempt + 1) /. 1000.0
          in
          if Unix.gettimeofday () +. delay_s >= deadline then begin
            Webdep_obs.Metrics.incr m_call_exhausted;
            Error (Printf.sprintf "%s (deadline %.1fs exceeded)" msg timeout_s)
          end
          else begin
            Webdep_obs.Metrics.incr m_call_retries;
            Unix.sleepf delay_s;
            go (attempt + 1)
          end
        end
  in
  go 0
