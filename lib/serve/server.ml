(* Batched dependence-query daemon.

   One select loop owns every connection: each iteration drains all the
   complete frames that arrived since the last one into an admission
   queue, answers up to [batch_max] of them as a single batch (one
   outbound write per connection — the Arakoon batched-store shape), and
   sheds the rest of the intake with an immediate [Overloaded] reply
   once the queue is past [max_queue], so tail latency stays bounded
   instead of queueing without limit.

   Answers go through a bounded response cache keyed by the raw request
   payload.  A server answers from one state for its whole life, so a
   cached reply never goes stale.  Per-request latency is observed
   through the [Metrics.Local] fast path and flushed once per batch, so
   the instrumentation cost per request is a few plain stores, not the
   shared histogram's atomic read-modify-writes. *)

module P = Protocol
module M = Webdep_obs.Metrics

let m_requests = M.counter "serve.requests"
let m_shed = M.counter "serve.shed"
let m_batches = M.counter "serve.batches"
let m_cache_hits = M.counter "serve.cache.hits"
let m_cache_misses = M.counter "serve.cache.misses"
let m_proto_errors = M.counter "serve.protocol_errors"
let m_conns = M.counter "serve.connections"
let m_conn_reset = M.counter "serve.conn.reset"
let m_conn_rejected = M.counter "serve.conn.rejected"
let m_drain_replies = M.counter "serve.drain.replies"

let latency_bounds =
  [| 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
     1e-2; 2e-2; 5e-2; 0.1; 0.25; 0.5; 1.0 |]

let size_bounds =
  [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0; 512.0; 1024.0; 4096.0 |]

let h_latency = M.histogram ~bounds:latency_bounds "serve.latency_s"
let h_batch = M.histogram ~bounds:size_bounds "serve.batch_size"
let h_queue = M.histogram ~bounds:size_bounds "serve.queue_depth"

(* --- engine: response cache and answers ---------------------------------- *)

(* Entries per cache generation.  The cache maps request payloads to
   response payloads in two generations: a lookup checks the current one,
   then the previous one, and moves a hit from the previous into the
   current; when the current fills, it becomes the previous and the
   previous is dropped.  So the cache never holds more than twice this
   many entries, never rehashes (each doubling of one unbounded table
   stalled the loop for milliseconds), and a key asked for at least once
   per [cache_capacity] distinct requests keeps hitting.  2^17 holds the
   3 008 measured-epoch queries of a c=300 daemon 40 times over, and a
   replay of 100 000 distinct requests (the end-to-end benchmark's
   cache-hit probe) without evicting any of them. *)
let cache_capacity = 1 lsl 17

type engine = {
  state : State.t;
  mutable current : (string, string) Hashtbl.t;
  mutable previous : (string, string) Hashtbl.t;
}

let engine state =
  { state; current = Hashtbl.create cache_capacity; previous = Hashtbl.create cache_capacity }

(* [Hashtbl.clear] keeps the bucket arrays, so neither generation ever
   reallocates. *)
let cache_add e key reply =
  if Hashtbl.length e.current >= cache_capacity then begin
    let dropped = e.previous in
    Hashtbl.clear dropped;
    e.previous <- e.current;
    e.current <- dropped
  end;
  Hashtbl.replace e.current key reply

let cache_find e key =
  match Hashtbl.find_opt e.current key with
  | Some _ as hit -> hit
  | None -> (
      match Hashtbl.find_opt e.previous key with
      | Some reply as hit ->
          Hashtbl.remove e.previous key;
          cache_add e key reply;
          hit
      | None -> None)

let cache_size e = Hashtbl.length e.current + Hashtbl.length e.previous
let cacheable = function P.Shutdown -> false | _ -> true

(* An answer too large for its wire fields (an error echoing a 65 000-byte
   epoch name, say) gets this short reply instead of killing the loop. *)
let unencodable = P.encode_response (P.Error "reply does not fit the wire format")

(* The encoded reply to one encoded request: a cache hit is a table
   lookup, a miss goes through [State.answer], which is pure. *)
let answer_payload e payload =
  match cache_find e payload with
  | Some reply ->
      M.incr m_cache_hits;
      reply
  | None -> (
      M.incr m_cache_misses;
      match P.decode_request payload with
      | Error msg ->
          M.incr m_proto_errors;
          P.encode_response (P.Error msg)
      | Ok req ->
          let resp =
            try State.answer e.state req
            with exn -> P.Error (Printexc.to_string exn)
          in
          let reply = try P.encode_response resp with P.Protocol_error _ -> unencodable in
          if cacheable req then cache_add e payload reply;
          reply)

(* --- server configuration ----------------------------------------------- *)

type config = {
  listen : string;  (* Unix-socket path, or "tcp:PORT" for loopback TCP *)
  max_queue : int;  (* admission-queue depth; past it requests are shed *)
  drain_delay_s : float;  (* artificial per-batch delay (tests only) *)
}

let config ?(max_queue = 1024) ?(drain_delay_s = 0.0) listen =
  if max_queue < 1 then invalid_arg "Server.config: max_queue must be >= 1";
  { listen; max_queue; drain_delay_s }

(* Requests answered per batch. *)
let batch_max = 256

(* --- connections --------------------------------------------------------- *)

(* Growable write buffer: [buf.[off..len)] is pending output. *)
type gbuf = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let gbuf_make n = { buf = Bytes.create n; off = 0; len = 0 }
let gbuf_avail g = g.len - g.off

let gbuf_reserve g n =
  if g.len + n > Bytes.length g.buf then begin
    if g.off > 0 then begin
      Bytes.blit g.buf g.off g.buf 0 (g.len - g.off);
      g.len <- g.len - g.off;
      g.off <- 0
    end;
    if g.len + n > Bytes.length g.buf then begin
      let cap = ref (max 4096 (Bytes.length g.buf)) in
      while g.len + n > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit g.buf 0 nb 0 g.len;
      g.buf <- nb
    end
  end

let gbuf_add g s =
  let n = String.length s in
  gbuf_reserve g n;
  Bytes.blit_string s 0 g.buf g.len n;
  g.len <- g.len + n

(* --- drain -------------------------------------------------------------- *)

(* Set from a signal handler (or a test) to ask the running server to
   drain: finish the queued batches, answer everything still buffered,
   reply [Draining] to new requests, then exit the loop cleanly.  A
   global atomic rather than loop state because signal handlers cannot
   reach into [run]'s closure; [run] re-arms it on entry so sequential
   servers in one process (the tests) start undrained. *)
let drain_requested = Atomic.make false
let request_drain () = Atomic.set drain_requested true

(* How long a drain may take before the loop gives up flushing. *)
let drain_grace_s = 5.0

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;  (* incoming partial frames, data always at 0 *)
  mutable rlen : int;
  mutable scanned : int;  (* JSON mode: [rbuf.[0..scanned)] holds no newline *)
  out : gbuf;
  mutable json : bool;  (* JSON-lines debug mode (first byte was '{') *)
  mutable mode_known : bool;
  mutable alive : bool;  (* false: read side done, flush and close *)
  mutable err : bool;  (* died on a read/write error, not a clean EOF *)
}

type item = { c : conn; payload : string; arrival : float }

let read_chunk = 65536

let ensure_rbuf c n =
  if c.rlen + n > Bytes.length c.rbuf then begin
    let cap = ref (max read_chunk (Bytes.length c.rbuf)) in
    while c.rlen + n > !cap do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit c.rbuf 0 nb 0 c.rlen;
    c.rbuf <- nb
  end

(* Read what the socket holds, but stop once more than one whole frame
   or JSON line is buffered: the rest waits in the kernel until
   [extract] has consumed or refused what is here, so no connection
   grows its buffer much past [Protocol.max_payload]. *)
let read_into c =
  let rec go () =
    ensure_rbuf c read_chunk;
    match Unix.read c.fd c.rbuf c.rlen read_chunk with
    | 0 -> c.alive <- false
    | n ->
        c.rlen <- c.rlen + n;
        if n = read_chunk && c.rlen <= P.max_payload + 4 then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
        c.err <- true;
        c.alive <- false
  in
  go ()

let write_pending c =
  let g = c.out in
  let rec go () =
    let n = gbuf_avail g in
    if n > 0 then
      match Unix.write c.fd g.buf g.off n with
      | w ->
          g.off <- g.off + w;
          if gbuf_avail g = 0 then begin
            g.off <- 0;
            g.len <- 0
          end
          else if w > 0 then go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) ->
          c.err <- true;
          c.alive <- false;
          g.off <- 0;
          g.len <- 0
  in
  go ()

(* --- the select loop ----------------------------------------------------- *)

let run ?on_ready ?(handle_signals = false) cfg state =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Atomic.set drain_requested false;
  let previous_handlers =
    if handle_signals then
      List.map
        (fun sg ->
          (sg, Sys.signal sg (Sys.Signal_handle (fun _ -> request_drain ()))))
        [ Sys.sigterm; Sys.sigint ]
    else []
  in
  let eng = engine state in
  let addr = Addr.of_spec cfg.listen in
  let lfd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
  Unix.set_nonblock lfd;
  (match addr with
  | Addr.Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
  | Addr.Unix_path _ -> Addr.unlink_if_unix addr);
  Unix.bind lfd (Addr.sockaddr addr);
  Unix.listen lfd 128;
  (match on_ready with Some f -> f () | None -> ());
  let conns = ref [] in
  let q : item Queue.t = Queue.create () in
  let stop = ref false in
  let stop_deadline = ref infinity in
  let lat = M.Local.create h_latency in
  let shutdown_payload = P.encode_request P.Shutdown in
  let respond c payload =
    if c.json then begin
      let j =
        match P.decode_response payload with
        | Ok resp -> P.response_to_json resp
        | Error msg -> P.response_to_json (P.Error msg)
      in
      gbuf_add c.out (Webdep_json.to_string j);
      gbuf_add c.out "\n"
    end
    else gbuf_add c.out (P.frame payload)
  in
  let enqueue c payload =
    if !stop then begin
      (* Draining: the request was read but will not be served; tell the
         client explicitly so its retry budget can move to the next
         attempt instead of timing out on silence. *)
      M.incr m_drain_replies;
      respond c (P.encode_response P.Draining)
    end
    else if Queue.length q >= cfg.max_queue then begin
      M.incr m_shed;
      respond c (P.encode_response P.Overloaded)
    end
    else Queue.add { c; payload; arrival = Unix.gettimeofday () } q
  in
  let drop_consumed c consumed =
    if consumed > 0 then begin
      Bytes.blit c.rbuf consumed c.rbuf 0 (c.rlen - consumed);
      c.rlen <- c.rlen - consumed
    end
  in
  (* A stream with no resynchronization point (a corrupt length prefix,
     a JSON line past [Protocol.max_payload]) is answered once and
     dropped after the flush. *)
  let reject c msg =
    M.incr m_proto_errors;
    M.incr m_conn_rejected;
    respond c (P.encode_response (P.Error msg));
    c.rlen <- 0;
    c.alive <- false
  in
  let extract_binary c =
    match P.parse_frames c.rbuf c.rlen with
    | payloads, consumed ->
        drop_consumed c consumed;
        List.iter (fun payload -> enqueue c payload) payloads
    | exception P.Protocol_error msg -> reject c msg
  in
  let json_line c line =
    let line = String.trim line in
    if String.length line > 0 then
      let refuse msg =
        M.incr m_proto_errors;
        respond c (P.encode_response (P.Error msg))
      in
      match P.request_of_json_string line with
      | Ok req -> (
          (* A field past its wire width (a 70 000-byte epoch, k
             above 65535) cannot be framed: refuse that line only. *)
          match P.encode_request req with
          | payload -> enqueue c payload
          | exception P.Protocol_error msg -> refuse msg)
      | Error msg -> refuse msg
  in
  (* Each byte is searched for a newline once: the pending bytes before
     [c.scanned] are known to hold none. *)
  let extract_json c =
    let consumed = ref 0 in
    for pos = c.scanned to c.rlen - 1 do
      if Bytes.get c.rbuf pos = '\n' then begin
        json_line c (Bytes.sub_string c.rbuf !consumed (pos - !consumed));
        consumed := pos + 1
      end
    done;
    drop_consumed c !consumed;
    if c.rlen > P.max_payload then
      reject c (Printf.sprintf "JSON line longer than %d bytes" P.max_payload);
    c.scanned <- c.rlen
  in
  let extract c =
    if c.rlen > 0 then begin
      if not c.mode_known then begin
        c.json <- Bytes.get c.rbuf 0 = '{';
        c.mode_known <- true
      end;
      if c.json then extract_json c else extract_binary c
    end
  in
  let accept_loop () =
    let continue = ref true in
    while !continue do
      match Unix.accept lfd with
      | fd, _ ->
          Unix.set_nonblock fd;
          M.incr m_conns;
          conns :=
            { fd;
              rbuf = Bytes.create read_chunk;
              rlen = 0;
              scanned = 0;
              out = gbuf_make 4096;
              json = false;
              mode_known = false;
              alive = true;
              err = false }
            :: !conns
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let process_batch () =
    if not (Queue.is_empty q) then begin
      M.observe h_queue (float_of_int (Queue.length q));
      if cfg.drain_delay_s > 0.0 then ignore (Unix.select [] [] [] cfg.drain_delay_s);
      let items = ref [] in
      let k = ref 0 in
      while !k < batch_max && not (Queue.is_empty q) do
        items := Queue.pop q :: !items;
        incr k
      done;
      let items = List.rev !items in
      M.incr m_batches;
      M.observe h_batch (float_of_int (List.length items));
      let replies = List.map (fun it -> answer_payload eng it.payload) items in
      let now = Unix.gettimeofday () in
      List.iter2
        (fun it reply ->
          respond it.c reply;
          M.Local.observe lat (now -. it.arrival);
          if String.equal it.payload shutdown_payload then begin
            stop := true;
            stop_deadline := now +. 1.0
          end)
        items replies;
      M.incr ~by:(List.length items) m_requests;
      M.Local.flush lat
    end
  in
  let close_conn c =
    (* The single close site: every removal path funnels through here,
       so a dead connection can neither leak its fd nor be counted
       twice.  Unconsumed partial bytes at close mean the peer vanished
       (or tore a frame) mid-message. *)
    if c.err || c.rlen > 0 then M.incr m_conn_reset;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let finished () =
    !stop && Queue.is_empty q
    && List.for_all (fun c -> gbuf_avail c.out = 0) !conns
  in
  let loop () =
    while (not (finished ())) && Unix.gettimeofday () < !stop_deadline do
      (if Atomic.get drain_requested && not !stop then begin
         (* Graceful drain: stop accepting, answer what is queued or
            still readable (those get [Draining]), flush, exit. *)
         stop := true;
         stop_deadline := Unix.gettimeofday () +. drain_grace_s
       end);
      let rds =
        (* Keep reading established connections while draining so late
           requests are answered with [Draining] instead of silence;
           only the listener goes quiet. *)
        (if !stop then [] else [ lfd ])
        @ List.filter_map (fun c -> if c.alive then Some c.fd else None) !conns
      in
      let wrs = List.filter_map (fun c -> if gbuf_avail c.out > 0 then Some c.fd else None) !conns in
      let timeout = if Queue.is_empty q then 0.1 else 0.0 in
      let readable, _, _ =
        if rds = [] && wrs = [] && not (finished ()) then begin
          if timeout > 0.0 then ignore (Unix.select [] [] [] timeout);
          ([], [], [])
        end
        else
          try Unix.select rds wrs [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if (not !stop) && List.memq lfd readable then accept_loop ();
      List.iter
        (fun c ->
          if c.alive && List.memq c.fd readable then begin
            read_into c;
            extract c
          end)
        !conns;
      process_batch ();
      List.iter (fun c -> if gbuf_avail c.out > 0 then write_pending c) !conns;
      conns :=
        List.filter
          (fun c ->
            if (not c.alive) && gbuf_avail c.out = 0 then begin
              close_conn c;
              false
            end
            else true)
          !conns
    done
  in
  (* Whatever takes the loop down — clean drain, shutdown request or an
     unexpected exception — every fd is closed, the socket path is
     unlinked and signal handlers are restored. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !conns;
      conns := [];
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Addr.unlink_if_unix addr;
      List.iter (fun (sg, h) -> Sys.set_signal sg h) previous_handlers)
    loop
