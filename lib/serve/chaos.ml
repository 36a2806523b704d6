(* Wire-level chaos client: sends one request per connection, with the
   mischief [Webdep_faults.Wire] planned for that request key.

   This is the client half of the chaos harness: the *server* under
   test is completely unaware, which is the point — every verdict is a
   pure hash of (seed, key), so a chaos run replays identically and the
   taxonomy of outcomes is comparable across runs and machines.

   The contract being exercised, per action:
   - [Clean], [Partial_write], [Delayed]: the server must answer, and
     the answer must be byte-identical to [State.answer] — dribbled or
     delayed bytes are a reassembly test, not an error.
   - [Torn_frame], [Reset_mid_frame]: no reply is owed; the server must
     drop the connection without crashing, leaking the fd, or
     disturbing its neighbours.
   - [Garbage_prefix]: the length prefix is corrupt by construction;
     the server owes at most a protocol [Error] before closing.  *)

module P = Protocol
module W = Webdep_faults.Wire
module FP = Webdep_faults.Fault_plan

(* What one chaotic call produced.  [Injected] means the harness itself
   sabotaged the exchange and no reply was owed. *)
type outcome =
  | Reply of P.response
  | Injected
  | Refused of string  (* connect failed — server down or restarting *)
  | Broken of string  (* reply owed but not delivered correctly *)

(* Deliver [s] in deterministic 1..3-byte dribbles. *)
let write_dribble plan ~key fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n =
        min (1 + FP.pick_int plan "wire_chunk" (key ^ "#" ^ string_of_int off) 3)
          (len - off)
      in
      Client.write_all fd (String.sub s off n);
      go (off + n)
    end
  in
  go 0

(* Abort with an RST rather than a FIN: linger 0 discards the queue. *)
let reset fd =
  (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* One chaotic request.  Returns the action taken and the outcome. *)
let call plan ~key spec req =
  let act = W.action plan ~key in
  let fr = P.frame (P.encode_request req) in
  match Client.connect ~attempts:1 spec with
  | exception Unix.Unix_error (e, _, _) ->
      (act, Refused (Unix.error_message e))
  | cl ->
      let fd = cl.Client.fd in
      let recv_reply () =
        match Client.recv cl with
        | resp -> Reply resp
        | exception P.Protocol_error msg -> Broken msg
        | exception Unix.Unix_error (e, _, _) -> Broken (Unix.error_message e)
      in
      let finish r =
        Client.close cl;
        r
      in
      let out =
        try
          match act with
          | W.Clean ->
              Client.write_all fd fr;
              finish (recv_reply ())
          | W.Partial_write ->
              write_dribble plan ~key fd fr;
              finish (recv_reply ())
          | W.Delayed ->
              let cut = W.cut_point plan ~key ~len:(String.length fr) in
              Client.write_all fd (String.sub fr 0 cut);
              Unix.sleepf 0.005;
              Client.write_all fd (String.sub fr cut (String.length fr - cut));
              finish (recv_reply ())
          | W.Torn_frame ->
              let cut = W.cut_point plan ~key ~len:(String.length fr) in
              Client.write_all fd (String.sub fr 0 cut);
              finish Injected
          | W.Reset_mid_frame ->
              let cut = W.cut_point plan ~key ~len:(String.length fr) in
              Client.write_all fd (String.sub fr 0 cut);
              reset fd;
              Injected
          | W.Garbage_prefix -> (
              let glen = 4 + FP.pick_int plan "wire_glen" key 12 in
              Client.write_all fd (W.garbage plan ~key ~len:glen);
              (* The server owes at most an [Error] before it hangs up;
                 silence-then-close is also acceptable. *)
              match Client.recv cl with
              | P.Error _ -> finish Injected
              | resp ->
                  finish
                    (Broken
                       (Printf.sprintf "garbage prefix answered with %s"
                          (String.trim (P.render resp))))
              | exception P.Protocol_error _ -> finish Injected
              | exception Unix.Unix_error _ -> finish Injected)
        with
        | Unix.Unix_error (e, _, _) -> (
            (* EPIPE/ECONNRESET while we are sabotaging the stream is
               expected collateral; during a clean exchange it is not. *)
            match act with
            | W.Clean | W.Partial_write | W.Delayed ->
                finish (Broken (Unix.error_message e))
            | _ -> finish Injected)
        | P.Protocol_error msg -> finish (Broken msg)
      in
      (act, out)
