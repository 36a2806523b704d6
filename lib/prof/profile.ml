(* Hotspot aggregation: span events -> per-label self/cumulative totals.

   A span's cumulative cost is its own duration (and GC deltas); its
   self cost subtracts the children nested directly inside it.  Events
   arrive in close order (a child always closes before its parent) and
   carry their nesting depth, so a per-lane accumulator indexed by depth
   recovers the tree without needing parent pointers: when a span at
   depth d closes, everything accumulated at depth d+1 since the last
   close at d is exactly its children's cumulative total.

   Events from different lanes never nest across lanes — each worker
   domain runs its own stack — so lanes aggregate independently and the
   label totals merge at the end.  Recursive labels double-count their
   nested cumulative totals, the usual flat-profile caveat; self totals
   always add up to the wall clock. *)

module Sink = Webdep_obs.Sink

type row = {
  label : string;
  calls : int;
  self_s : float;
  cum_s : float;
  self_minor_words : float;
  cum_minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

let zero_row label =
  {
    label;
    calls = 0;
    self_s = 0.0;
    cum_s = 0.0;
    self_minor_words = 0.0;
    cum_minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    major_collections = 0;
  }

(* Restore close order for events that lost it (e.g. a loaded trace,
   sorted by start time): close = start + duration ascending, deeper
   spans first on ties (a zero-width parent closes after its zero-width
   child).  The sort is stable, so already-ordered collector streams
   pass through unchanged. *)
let close_order events =
  List.stable_sort
    (fun (a : Sink.event) b ->
      match
        Float.compare (a.Sink.start_s +. a.Sink.duration_s)
          (b.Sink.start_s +. b.Sink.duration_s)
      with
      | 0 -> compare b.Sink.depth a.Sink.depth
      | c -> c)
    events

let aggregate events =
  let by_lane = Hashtbl.create 8 in
  List.iter
    (fun (ev : Sink.event) ->
      let q =
        match Hashtbl.find_opt by_lane ev.Sink.lane with
        | Some q -> q
        | None ->
            let q = ref [] in
            Hashtbl.add by_lane ev.Sink.lane q;
            q
      in
      q := ev :: !q)
    events;
  let rows : (string, row) Hashtbl.t = Hashtbl.create 32 in
  let lanes = Hashtbl.fold (fun lane q acc -> (lane, List.rev !q) :: acc) by_lane [] in
  List.iter
    (fun (_, lane_events) ->
      (* children.(d) = (duration, minor words) closed at depth d since
         the last close at depth d-1. *)
      let child_dur = Hashtbl.create 8 and child_minor = Hashtbl.create 8 in
      let get tbl d = Option.value ~default:0.0 (Hashtbl.find_opt tbl d) in
      let add tbl d v = Hashtbl.replace tbl d (get tbl d +. v) in
      List.iter
        (fun (ev : Sink.event) ->
          let d = ev.Sink.depth in
          let self_s = Float.max 0.0 (ev.Sink.duration_s -. get child_dur (d + 1)) in
          let self_minor =
            Float.max 0.0 (ev.Sink.gc.Sink.minor_words -. get child_minor (d + 1))
          in
          Hashtbl.remove child_dur (d + 1);
          Hashtbl.remove child_minor (d + 1);
          add child_dur d ev.Sink.duration_s;
          add child_minor d ev.Sink.gc.Sink.minor_words;
          let r =
            Option.value ~default:(zero_row ev.Sink.name)
              (Hashtbl.find_opt rows ev.Sink.name)
          in
          Hashtbl.replace rows ev.Sink.name
            {
              r with
              calls = r.calls + 1;
              self_s = r.self_s +. self_s;
              cum_s = r.cum_s +. ev.Sink.duration_s;
              self_minor_words = r.self_minor_words +. self_minor;
              cum_minor_words = r.cum_minor_words +. ev.Sink.gc.Sink.minor_words;
              promoted_words = r.promoted_words +. ev.Sink.gc.Sink.promoted_words;
              major_words = r.major_words +. ev.Sink.gc.Sink.major_words;
              major_collections =
                r.major_collections + ev.Sink.gc.Sink.major_collections;
            })
        (close_order lane_events))
    lanes;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun a b ->
         match Float.compare b.self_s a.self_s with
         | 0 -> compare a.label b.label
         | c -> c)

(* --- collector ---------------------------------------------------------- *)

(* In-memory recorder; install [collector_sink c] around the workload,
   then [aggregate (events c)] or write them with [Trace.write]. *)
type collector = { lock : Mutex.t; mutable events : Sink.event list }

let collector () = { lock = Mutex.create (); events = [] }

let collector_sink c =
  {
    Sink.emit = (fun ev -> Mutex.protect c.lock (fun () -> c.events <- ev :: c.events));
  }

let events c = Mutex.protect c.lock (fun () -> List.rev c.events)

(* --- rendering ---------------------------------------------------------- *)

let pp_words w =
  if Float.abs w >= 1e9 then Printf.sprintf "%.2fGw" (w /. 1e9)
  else if Float.abs w >= 1e6 then Printf.sprintf "%.2fMw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let pp_secs s =
  if s >= 100.0 then Printf.sprintf "%.0fs" s
  else if s >= 1.0 then Printf.sprintf "%.2fs" s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let render ?(top = 20) rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-36s %7s %10s %10s %10s %10s %8s %6s\n" "span label" "calls"
       "self" "cum" "self alloc" "cum alloc" "major" "majGC");
  let total_self = List.fold_left (fun acc r -> acc +. r.self_s) 0.0 rows in
  let total_minor = List.fold_left (fun acc r -> acc +. r.self_minor_words) 0.0 rows in
  List.iteri
    (fun i r ->
      if i < top then
        Buffer.add_string b
          (Printf.sprintf "%-36s %7d %10s %10s %10s %10s %8s %6d\n" r.label r.calls
             (pp_secs r.self_s) (pp_secs r.cum_s)
             (pp_words r.self_minor_words)
             (pp_words r.cum_minor_words) (pp_words r.major_words) r.major_collections))
    rows;
  let shown = min top (List.length rows) in
  Buffer.add_string b
    (Printf.sprintf "-- %d of %d labels; total self %s, total self alloc %s\n" shown
       (List.length rows) (pp_secs total_self) (pp_words total_minor));
  Buffer.contents b
