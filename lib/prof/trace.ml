(* Chrome trace-event export: spans as a Perfetto-loadable timeline.

   Spans are recorded in memory ([Profile.collector]) and [write] writes
   them once as one JSON document in the Trace Event Format that
   Perfetto and chrome://tracing load directly:

     { "displayTimeUnit": "ms",
       "traceEvents": [
         {"ph":"M", ... thread_name metadata, one per lane ...},
         {"ph":"X", "name":..., "ts":<us>, "dur":<us>,
          "pid":1, "tid":<lane>, "args":{...}}, ... ] }

   Every event lands on the lane (OCaml domain) that closed the span, so
   a --jobs N sweep renders as N parallel tracks with proper nesting —
   a flamegraph-style timeline per domain.  The args object carries the
   span's GC deltas, its nesting depth and its string attributes, which
   is enough for [load] to reconstruct the original events and feed them
   back through the profiler. *)

module Json = Webdep_json
module Sink = Webdep_obs.Sink

let us t = t *. 1e6

let json_of_event (ev : Sink.event) =
  let args =
    [
      ("depth", Json.Int ev.Sink.depth);
      ("minor_words", Json.Float ev.Sink.gc.Sink.minor_words);
      ("promoted_words", Json.Float ev.Sink.gc.Sink.promoted_words);
      ("major_words", Json.Float ev.Sink.gc.Sink.major_words);
      ("major_collections", Json.Int ev.Sink.gc.Sink.major_collections);
    ]
    @ List.map (fun (k, v) -> (k, Json.String v)) ev.Sink.attrs
  in
  Json.Obj
    [
      ("name", Json.String ev.Sink.name);
      ("cat", Json.String "webdep");
      ("ph", Json.String "X");
      ("ts", Json.Float (us ev.Sink.start_s));
      ("dur", Json.Float (us ev.Sink.duration_s));
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.Sink.lane);
      ("args", Json.Obj args);
    ]

let lane_name l = if l = 0 then "domain 0 (main)" else Printf.sprintf "domain %d" l

let metadata_events events =
  let lanes = List.sort_uniq compare (List.map (fun ev -> ev.Sink.lane) events) in
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("args", Json.Obj [ ("name", Json.String "webdep") ]);
    ]
  :: List.map
       (fun l ->
         Json.Obj
           [
             ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 1);
             ("tid", Json.Int l);
             ("args", Json.Obj [ ("name", Json.String (lane_name l)) ]);
           ])
       lanes

let document events =
  (* Deterministic event order — lane, then time, then nesting — so the
     exported file is stable for a given set of spans. *)
  let sorted =
    List.stable_sort
      (fun (a : Sink.event) b ->
        match compare a.Sink.lane b.Sink.lane with
        | 0 -> (
            match Float.compare a.Sink.start_s b.Sink.start_s with
            | 0 -> compare a.Sink.depth b.Sink.depth
            | c -> c)
        | c -> c)
      events
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (metadata_events sorted @ List.map json_of_event sorted));
    ]

let write path events =
  let oc = open_out path in
  output_string oc (Json.to_string (document events));
  output_char oc '\n';
  close_out oc

(* --- loading ------------------------------------------------------------ *)

exception Bad_trace of string

let gc_keys = [ "depth"; "minor_words"; "promoted_words"; "major_words"; "major_collections" ]

(* Event [i] of the document: a span when its phase is "X", [None] for
   metadata.  A field of the wrong type refuses the trace by the event's
   index; an absent one reads as zero. *)
let event_of_json i j =
  let bad k = raise (Bad_trace (Printf.sprintf "event %d: %s has the wrong type" i k)) in
  let fields = match j with Json.Obj f -> f | _ -> bad "the event" in
  let field obj k = List.assoc_opt k obj in
  let number obj k =
    match field obj k with
    | None -> 0.0
    | Some (Json.Float v) -> v
    | Some (Json.Int n) -> float_of_int n
    | Some _ -> bad k
  in
  let int obj k = match field obj k with None -> 0 | Some (Json.Int n) -> n | Some _ -> bad k in
  match field fields "ph" with
  | Some (Json.String "X") ->
      let name = match field fields "name" with Some (Json.String s) -> s | _ -> bad "name" in
      let args =
        match field fields "args" with None -> [] | Some (Json.Obj a) -> a | Some _ -> bad "args"
      in
      let attrs =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.String s when not (List.mem k gc_keys) -> Some (k, s)
            | _ -> None)
          args
      in
      Some
        {
          Sink.name;
          attrs;
          start_s = number fields "ts" /. 1e6;
          duration_s = number fields "dur" /. 1e6;
          depth = int args "depth";
          lane = int fields "tid";
          gc =
            {
              Sink.minor_words = number args "minor_words";
              promoted_words = number args "promoted_words";
              major_words = number args "major_words";
              major_collections = int args "major_collections";
            };
        }
  | Some (Json.String _) | None -> None
  | Some _ -> bad "ph"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  let doc =
    try Json.parse (read_file path)
    with Json.Parse_error m -> raise (Bad_trace ("not a JSON document: " ^ m))
  in
  let events =
    match (doc, Json.member "traceEvents" doc) with
    | Json.List l, _ | _, Some (Json.List l) -> l
    | _ -> raise (Bad_trace "no traceEvents list")
  in
  List.filter_map Fun.id (List.mapi event_of_json events)
