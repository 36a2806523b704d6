(* Workloads "query_hot" and "query_cold": open-loop request ladders
   against a real [webdep serve -c 300] child process.

   query_hot draws Zipf(1.0) keys from the 3 008 measured-epoch queries,
   with the response cache warmed first, so it costs the wire, the select
   loop, batching and the protocol.  query_cold adds a 48-epoch churn log
   and sends every key once, from a seeded permutation of ~826k
   delta/score/ranking keys over all loaded epochs, so every request
   misses the response cache: [State.answer], cache inserts and cache
   growth dominate.  Both compare every 64th reply byte for byte with
   [State.answer] on an in-process state built from the same world. *)

module World = Webdep_worldgen.World
module Measure = Webdep_pipeline.Measure
module D = Webdep.Dataset
module P = Webdep_serve.Protocol
module State = Webdep_serve.State
module Epoch = Webdep_epoch
open Common

type mix = Hot | Cold

let c = 300
let cold_epochs = 48
let churn = 0.02
let setups = 3
let measured = [ "2023-05"; "2025-05" ]

(* Offered rates, lowest first: the lowest meets the SLO and the highest
   misses it.  Latency at the reference rung is the headline. *)
let ladder = function
  | Hot -> [ 100_000.; 200_000.; 300_000.; 400_000. ]
  | Cold -> [ 12_500.; 25_000.; 50_000.; 100_000. ]

let reference_rung = function Hot -> 0 | Cold -> 1

(* Seconds of unrecorded load at the reference rate before the first
   rung: the daemon's heap is still settling from its start-up sweep. *)
let warmup_s = 2.0

(* (rate, seconds) of the warm-up, then of each measured rung.  The
   untraced run measures the reference rate alone, for all of
   [seconds]; the traced run walks the whole ladder, giving half of
   [seconds] to the reference rung and sharing the rest. *)
let phases mix ~seconds ~traced =
  let s = float_of_int seconds in
  let reference = List.nth (ladder mix) (reference_rung mix) in
  let measured =
    if traced then
      List.mapi (fun i rate -> (rate, if i = reference_rung mix then s /. 2.0 else s /. 6.0)) (ladder mix)
    else [ (reference, s) ]
  in
  (reference, warmup_s) :: measured

(* --- the in-process reference ------------------------------------------------ *)

type reference = {
  world : World.t;
  state : State.t;
  log_path : string option;
  epochs : string list;  (* every loaded epoch, measured first *)
  verified : bool;  (* traced run: the driven sweeps equal measure_all *)
}

(* The daemon's scores-only epochs: one per committed churn-log epoch,
   each holding S/HHI/insularity per (layer, country). *)
let scored_of_log log =
  let acc = ref [] in
  let observe r =
    let rows =
      List.map
        (fun l ->
          ( l,
            List.filter_map
              (fun cc ->
                match Epoch.Replay.score r l cc with
                | s ->
                    Some
                      ( cc,
                        {
                          State.s;
                          hhi = Epoch.Replay.hhi r l cc;
                          insularity = Epoch.Replay.insularity r l cc;
                        } )
                | exception Not_found -> None)
              (Epoch.Replay.countries r) ))
        Drive.layers
    in
    acc := (Printf.sprintf "e%d" (Epoch.Replay.epoch r), rows) :: !acc
  in
  ignore (Tracing.span "epoch.replay.replay" (fun () -> Epoch.Replay.replay ~observe log));
  List.rev !acc

let load_log path =
  Tracing.span "epoch.log.load" (fun () ->
      match Epoch.Log.load ~path with
      | Epoch.Log.Loaded log -> log
      | Epoch.Log.Absent | Epoch.Log.Mismatch _ -> failwith ("churn log unusable: " ^ path))

let build_reference ~seed ~traced mix =
  let world = World.create ~c ~seed () in
  let measure epoch =
    if traced then Drive.sweep ~epoch world else Measure.measure_all ~epoch world
  in
  let ds23 = measure World.May_2023 in
  let ds25 = measure World.May_2025 in
  let verified =
    (not traced)
    || Drive.same_as_measure_all world [ (World.May_2023, ds23); (World.May_2025, ds25) ]
  in
  let fingerprint =
    Webdep_json.to_string
      (Webdep_json.Obj (Webdep_store.Fingerprint.to_meta (Measure.store_fingerprint world)))
  in
  let log_path, scored =
    match mix with
    | Hot -> (None, [])
    | Cold ->
        let path = out_path "query" ^ ".epochs.log" in
        let base = List.map (D.country_exn ds23) (D.countries ds23) in
        let donors =
          List.map (fun cc -> (cc, Array.of_list (D.country_exn ds25 cc).D.sites)) (D.countries ds25)
        in
        let events =
          Epoch.Synth.generate ~seed ~fraction:churn ~epochs:cold_epochs ~base_epoch:0 ~base ~donors
        in
        Epoch.Log.create ~path ~base_epoch:0 ~base ();
        List.iter
          (fun (ev : Epoch.Log.event) -> Epoch.Log.append ~path ~epoch:ev.Epoch.Log.epoch ev.Epoch.Log.changes)
          events;
        (Some path, scored_of_log (load_log path))
  in
  let state = State.make ~fingerprint ~scored [ ("2023-05", ds23); ("2025-05", ds25) ] in
  State.warm state;
  { world; state; log_path; epochs = State.epochs state; verified }

(* --- keys ------------------------------------------------------------------ *)

let countries r = Array.of_list (World.countries r.world)
let layers = Array.of_list Drive.layers

(* The 3 008 measured-epoch keys: score and top-5 per (epoch, layer,
   country), a top-10 ranking per (epoch, layer), and the 2023 -> 2025
   delta per (layer, country). *)
let hot_keys r =
  let ccs = World.countries r.world in
  let per_epoch e =
    List.concat_map
      (fun layer ->
        List.concat_map
          (fun country ->
            [ P.Score { epoch = e; layer; country }; P.Top_shares { epoch = e; layer; country; k = 5 } ])
          ccs
        @ [ P.Ranking { epoch = e; layer; k = 10 } ])
      Drive.layers
  in
  let deltas =
    List.concat_map
      (fun layer ->
        List.map
          (fun country -> P.Delta { layer; country; old_epoch = "2023-05"; new_epoch = "2025-05" })
          ccs)
      Drive.layers
  in
  Array.of_list (List.concat_map per_epoch measured @ deltas)

(* Seeded Fisher-Yates permutation of 0..n-1. *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Webdep_stats.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Zipf(1.0) draws over [n] keys whose popularity order is a seeded
   permutation. *)
let zipf rng n =
  let order = permutation rng n in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  fun () ->
    let u = Webdep_stats.Rng.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    order.(!lo)

(* The cold key universe over E loaded epochs: delta(eX, eY) for every
   X < Y, then score per epoch, then ranking(k) for k = 1..countries,
   each across 4 layers x countries.  Indexed without materializing. *)
let cold_universe r =
  let eps = Array.of_list r.epochs in
  let ccs = countries r in
  let nc = Array.length ccs in
  let ne = Array.length eps in
  let pairs =
    Array.of_list
      (List.concat_map (fun x -> List.init (ne - x - 1) (fun d -> (x, x + d + 1))) (List.init ne Fun.id))
  in
  let per = 4 * nc in
  let n_delta = Array.length pairs * per and n_score = ne * per in
  let n = n_delta + n_score + (ne * 4 * nc) in
  let key i =
    if i < n_delta then
      let x, y = pairs.(i / per) in
      let rem = i mod per in
      P.Delta
        { layer = layers.(rem / nc); country = ccs.(rem mod nc); old_epoch = eps.(x); new_epoch = eps.(y) }
    else if i < n_delta + n_score then
      let i = i - n_delta in
      let rem = i mod per in
      P.Score { epoch = eps.(i / per); layer = layers.(rem / nc); country = ccs.(rem mod nc) }
    else
      let i = i - n_delta - n_score in
      let rem = i mod per in
      P.Ranking { epoch = eps.(i / per); layer = layers.(rem / nc); k = 1 + (rem mod nc) }
  in
  (n, key)

(* One rung's request stream: [key j] is request j. *)
type stream = {
  rate : float;
  count : int;
  key : int -> P.request;
  frame : int -> string;  (* request j, encoded and framed *)
}

(* Streams for a list of (rate, seconds) phases; the cold mix never
   repeats a key across them. *)
let streams ~seed r mix phases =
  let rng = Webdep_stats.Rng.create seed in
  let count (rate, seconds) = int_of_float (rate *. seconds) in
  match mix with
  | Hot ->
      let keys = hot_keys r in
      let frames = Array.map (fun k -> P.frame (P.encode_request k)) keys in
      let draw = zipf rng (Array.length keys) in
      List.map
        (fun ((rate, _) as ph) ->
          let idx = Array.init (count ph) (fun _ -> draw ()) in
          {
            rate;
            count = count ph;
            key = (fun j -> keys.(idx.(j)));
            frame = (fun j -> frames.(idx.(j)));
          })
        phases
  | Cold ->
      let n, key = cold_universe r in
      let perm = permutation rng n in
      let next = ref 0 in
      List.map
        (fun ((rate, _) as ph) ->
          let first = !next in
          next := !next + count ph;
          if !next > n then failwith "cold mix: key universe exhausted";
          let key j = key perm.(first + j) in
          { rate; count = count ph; key; frame = (fun j -> P.frame (P.encode_request (key j))) })
        phases

let plan r s () =
  Loadgen.plan ~rate:s.rate ~count:s.count ~frame:s.frame
    ~answer:(fun j -> P.encode_response (State.answer r.state (s.key j)))

(* --- in-process replay (traced run) -------------------------------------- *)

let kind = function
  | P.Score _ -> "score"
  | P.Top_shares _ -> "top_shares"
  | P.Ranking _ -> "ranking"
  | P.Delta _ -> "delta"
  | P.Ping | P.Shutdown | P.Epochs -> "other"

(* Replay a request stream through each serve layer in turn: decode,
   uncached [State.answer] per query kind, encode, and the engine's
   cache-hit path. *)
let replay_inprocess r (reqs : P.request array) =
  let n = Array.length reqs in
  let per_op name count = ratio (Tracing.total_s name *. 1e9) (float_of_int count) in
  let payloads = Array.map P.encode_request reqs in
  Tracing.span "serve.protocol.decode" (fun () ->
      Array.iter (fun p -> ignore (P.decode_request p)) payloads);
  let kinds = [ "score"; "top_shares"; "ranking"; "delta" ] in
  let by_kind =
    List.map
      (fun k ->
        let of_kind = List.filter (fun q -> kind q = k) (Array.to_list reqs) in
        Tracing.span ("serve.state.answer." ^ k) (fun () ->
            List.iter (fun q -> ignore (State.answer r.state q)) of_kind);
        (k, List.length of_kind))
      kinds
  in
  let answers = Array.map (State.answer r.state) reqs in
  Tracing.span "serve.protocol.encode" (fun () ->
      Array.iter (fun a -> ignore (P.encode_response a)) answers);
  let engine = Webdep_serve.Server.engine r.state in
  Array.iter (fun p -> ignore (Webdep_serve.Server.answer_payload engine p)) payloads;
  Tracing.span "serve.engine.hit" (fun () ->
      Array.iter (fun p -> ignore (Webdep_serve.Server.answer_payload engine p)) payloads);
  [
    m "serve.protocol.decode_ns" "ns" (per_op "serve.protocol.decode" n);
    m "serve.protocol.encode_ns" "ns" (per_op "serve.protocol.encode" n);
    m "serve.engine.hit_ns" "ns" (per_op "serve.engine.hit" n);
  ]
  @ List.map
      (fun (k, count) -> m ("serve.state.answer_ns." ^ k) "ns" (per_op ("serve.state.answer." ^ k) count))
      by_kind

(* The daemon's own view, from its --metrics dump written at exit. *)
let daemon_metrics path =
  let j = Webdep_json.parse (read_file path) in
  let section s = Option.value ~default:Webdep_json.Null (Webdep_json.member s j) in
  let num v = match v with Some (Webdep_json.Float f) -> f | Some (Webdep_json.Int i) -> float_of_int i | _ -> 0.0 in
  let hist name field = num (Option.bind (Webdep_json.member name (section "histograms")) (Webdep_json.member field)) in
  let counter name = num (Webdep_json.member name (section "counters")) in
  let hits = counter "serve.cache.hits" and misses = counter "serve.cache.misses" in
  ( hist "serve.latency_s" "p50",
    [
      m "serve.server_latency_us_p50" "us" (1e6 *. hist "serve.latency_s" "p50");
      m "serve.server_latency_us_p99" "us" (1e6 *. hist "serve.latency_s" "p99");
      m "serve.batch_size_mean" "count" (hist "serve.batch_size" "mean");
      m "serve.queue_depth_mean" "count" (hist "serve.queue_depth" "mean");
      m "serve.queue_depth_max" "count" (hist "serve.queue_depth" "max");
      m "serve.cache_hit_ratio" "ratio" (ratio hits (hits +. misses));
      m "serve.shed" "count" (counter "serve.shed");
    ] )

(* --- the workload ---------------------------------------------------------- *)

let rung_metrics rungs =
  List.concat
    (List.mapi
       (fun i (r : Loadgen.rung) ->
         let p = Printf.sprintf "rung.%d." (i + 1) in
         [
           m (p ^ "p50_us") "us" (1e6 *. Loadgen.p50 r);
           m (p ^ "p99_us") "us" (1e6 *. Loadgen.p99 r);
           m (p ^ "tail_us") "us" (1e6 *. Loadgen.tail r);
           m (p ^ "failed_ratio") "ratio" (Loadgen.failed_ratio r);
           m (p ^ "late_us_p99") "us" (1e6 *. Loadgen.late_p99 r);
         ])
       rungs)

let run ~seed ~seconds ~traced mix =
  let r = build_reference ~seed ~traced mix in
  let warmup, streams =
    match streams ~seed r mix (phases mix ~seconds ~traced) with w :: s -> (w, s) | [] -> assert false
  in
  let reference_rung = if traced then reference_rung mix else 0 in
  (* The generator runs on one domain: an idle pool domain would still
     join each of its minor collections.  The daemon's admission queue
     is deep enough that a host stall of a few hundred milliseconds at
     the reference rate queues requests instead of shedding them, so
     the rungs the daemon must carry see no failures. *)
  Webdep_par.shutdown ();
  let args =
    [ "-c"; string_of_int c; "--seed"; string_of_int seed; "--jobs"; "2"; "--max-queue"; "65536" ]
    @ match r.log_path with Some p -> [ "--epoch-log"; p ] | None -> []
  in
  let rec setup k acc =
    let d, dt = Loadgen.spawn ~metrics:traced args in
    log "daemon ready in %.3fs" dt;
    if k <= 1 then (d, dt :: acc)
    else begin
      if not (Loadgen.stop d) then failwith "daemon did not shut down cleanly";
      setup (k - 1) (dt :: acc)
    end
  in
  let d, setup_times = setup setups [] in
  (match mix with
  | Hot ->
      (* Every key once, in batches the admission queue takes whole. *)
      let cl = Webdep_serve.Client.connect d.Loadgen.socket in
      let keys = hot_keys r in
      let rec warm i =
        if i < Array.length keys then begin
          let batch = Array.sub keys i (min 200 (Array.length keys - i)) in
          ignore (Webdep_serve.Client.pipeline cl (Array.to_list batch));
          warm (i + 200)
        end
      in
      warm 0;
      Webdep_serve.Client.close cl
  | Cold -> ());
  ignore (Loadgen.run_ladder d.Loadgen.socket [ plan r warmup ]);
  let cpu0 = cpu_s d.Loadgen.pid in
  let rungs = Loadgen.run_ladder d.Loadgen.socket (List.map (plan r) streams) in
  let cpu = cpu_s d.Loadgen.pid -. cpu0 in
  let rss = peak_rss_mb (string_of_int d.Loadgen.pid) in
  let stopped = check (Loadgen.stop d) "daemon did not answer shutdown with bye and exit 0" in
  Option.iter remove_if_exists r.log_path;
  let reference = List.nth rungs reference_rung in
  (* Rungs up to the reference rate are the load the daemon must carry;
     the ones above probe the knee, where shedding is the measured
     outcome rather than a failure of the run. *)
  let carried = List.filteri (fun i _ -> i <= reference_rung) rungs in
  let sum_of f = List.fold_left (fun acc x -> acc + f x) 0 in
  let checked = sum_of (fun (x : Loadgen.rung) -> x.Loadgen.checked) rungs in
  let mismatched = sum_of (fun (x : Loadgen.rung) -> x.Loadgen.mismatched) rungs in
  let correct =
    stopped && r.verified
    && check (checked > 0) "no reply was checked against State.answer"
    && check (mismatched = 0) (Printf.sprintf "%d replies differ from State.answer" mismatched)
  in
  let attempted = sum_of (fun (x : Loadgen.rung) -> x.Loadgen.attempted) carried in
  let failed = sum_of (fun (x : Loadgen.rung) -> x.Loadgen.failed) carried in
  let answered =
    sum_of (fun (x : Loadgen.rung) -> x.Loadgen.attempted - x.Loadgen.failed) rungs
  in
  let metrics =
    if not traced then
      [
        m "setup_s" "s" (median setup_times);
        (* Requests answered per second of the daemon's CPU time at the
           reference rate: its capacity, which bounds the rate it can
           sustain.  CPU time leaves out the time the host took the
           CPU away. *)
        m "throughput_per_s" "1/s" (ratio (float_of_int answered) cpu);
        m "latency_p50_ms" "ms" (1e3 *. Loadgen.p50 reference);
        m "peak_rss_mb" "MiB" rss;
      ]
    else begin
      let server_p50, daemon = daemon_metrics (Option.get d.Loadgen.metrics) in
      Option.iter remove_if_exists d.Loadgen.metrics;
      let stream = List.nth streams reference_rung in
      let sample = Array.init (min stream.count 100_000) stream.key in
      let countries = Drive.sample_countries ~seed r.world (Drive.replay_count r.world) in
      let sites, dns_hit_ratio = Drive.replay_sites r.world countries in
      Drive.layer_metrics ~sites ~dns_hit_ratio
      @ [ m "trace.overhead_ratio" "ratio" (Drive.tracing_overhead r.world countries) ]
      @ daemon
      @ [
          m "serve.cpu_us_per_req" "us" (1e6 *. ratio cpu (float_of_int answered));
          m "serve.max_qps_slo" "1/s" (Loadgen.max_rate_meeting_slo rungs);
          m "serve.wire_us_p50" "us" (1e6 *. (Loadgen.p50 reference -. server_p50));
        ]
      @ replay_inprocess r sample @ rung_metrics rungs
      @ [
          m "epoch.log.load_s" "s" (Tracing.total_s "epoch.log.load");
          m "epoch.replay.replay_s" "s" (Tracing.total_s "epoch.replay.replay");
        ]
    end
  in
  { correct; attempted; failed; metrics }

