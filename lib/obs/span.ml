(* Timing spans.

   [timed ~name f] runs [f], measures its wall-clock duration and the
   movement of the GC counters (minor/promoted/major words, major
   collections), records the duration into the per-name histogram
   ["span." ^ name] in the metrics registry, and emits an event to the
   active trace sink; it returns [f]'s value with that duration, and
   [with_] is [timed] without the duration.  Spans nest: a domain-local
   depth tracks containment so the console sink can indent and the
   trace exports can reconstruct the tree — each worker domain gets its
   own nesting stack, so parallel sweeps don't corrupt one another's
   depth.  Exceptions propagate and still close the span.

   Lanes: every event carries the lane of the domain that closed it, so
   multi-domain traces render one timeline per lane.  Pool workers call
   [set_lane] once at spawn to claim stable indices (1..jobs-1, the
   caller being lane 0); domains that never do fall back to their raw
   domain id. *)

let process_start = Unix.gettimeofday ()
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* None until [set_lane]; the raw domain id is the fallback, which makes
   the main domain lane 0 without any setup. *)
let lane_key : int option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let set_lane l = Domain.DLS.get lane_key := Some l

let lane () =
  match !(Domain.DLS.get lane_key) with
  | Some l -> l
  | None -> (Domain.self () :> int)

let histogram_prefix = "span."

let duration_histogram name = Metrics.histogram (histogram_prefix ^ name)

(* [Gc.quick_stat] on OCaml 5 only refreshes minor_words at minor
   collections, so a short span would read a delta of zero; the
   dedicated [Gc.minor_words] accumulator includes the words allocated
   since the last collection and is itself cheap (no stat record). *)
let gc_delta ~minor0 ~minor1 (a : Gc.stat) (b : Gc.stat) =
  {
    Sink.minor_words = minor1 -. minor0;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    major_words = b.Gc.major_words -. a.Gc.major_words;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

(* The span's duration is read once, from one clock pair; the histogram,
   the event and the caller all get that same float. *)
let timed ?(attrs = []) ~name f =
  let g0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let depth = Domain.DLS.get depth_key in
  let d = !depth in
  depth := d + 1;
  let finish () =
    depth := d;
    let dur = Unix.gettimeofday () -. t0 in
    let minor1 = Gc.minor_words () in
    let g1 = Gc.quick_stat () in
    Metrics.observe (duration_histogram name) dur;
    Sink.emit
      {
        Sink.name;
        attrs;
        start_s = t0 -. process_start;
        duration_s = dur;
        depth = d;
        lane = lane ();
        gc = gc_delta ~minor0 ~minor1 g0 g1;
      };
    dur
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let with_ ?attrs ~name f = fst (timed ?attrs ~name f)
