(* Spans recorded from the benchmark's own files, around its calls into
   each library layer, for the --trace 1 run.

   Spans are kept in memory and written once at the end: a Perfetto file
   through [Webdep_prof.Trace.write] (one lane per pool domain, taken
   from [Webdep_obs.Span.lane]) and a self-time table through
   [Webdep_prof.Profile].  The per-layer metrics are sums over the
   recorded events, so they add up to what the timeline shows.  With
   tracing off, [span] is a plain call. *)

module Sink = Webdep_obs.Sink

let enabled = ref false
let lock = Mutex.create ()
let recorded : Sink.event list ref = ref []
let origin = Common.now_s ()
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let span ?(attrs = []) name f =
  if not !enabled then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let mw0 = Gc.minor_words () in
    let t0 = Common.now_s () in
    let finish () =
      let t1 = Common.now_s () in
      depth := d;
      let ev =
        {
          Sink.name;
          attrs;
          start_s = t0 -. origin;
          duration_s = t1 -. t0;
          depth = d;
          lane = Webdep_obs.Span.lane ();
          gc = { Sink.zero_gc with Sink.minor_words = Gc.minor_words () -. mw0 };
        }
      in
      Mutex.protect lock (fun () -> recorded := ev :: !recorded)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let events () = Mutex.protect lock (fun () -> List.rev !recorded)

let named name = List.filter (fun (ev : Sink.event) -> String.equal ev.Sink.name name) (events ())

(* Total duration and minor words of every span with this name. *)
let total_s name = List.fold_left (fun acc (ev : Sink.event) -> acc +. ev.Sink.duration_s) 0.0 (named name)

let total_mw name =
  List.fold_left (fun acc (ev : Sink.event) -> acc +. ev.Sink.gc.Sink.minor_words) 0.0 (named name)
  /. 1e6

let lanes () = List.sort_uniq compare (List.map (fun (ev : Sink.event) -> ev.Sink.lane) (events ()))

(* Write the Perfetto file and print the self-time table. *)
let finish ~path =
  let evs = events () in
  Webdep_prof.Trace.write path evs;
  print_string (Webdep_prof.Profile.render ~top:25 (Webdep_prof.Profile.aggregate evs));
  Printf.printf "perfetto trace: %s (%d spans, %d lanes)\n%!" path (List.length evs)
    (List.length (lanes ()))
