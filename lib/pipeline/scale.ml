(* Full-scale sweep runner: one world at toplist size [c], measured end
   to end through the streaming pipeline, with the GC telemetry the
   scale bench phase and the CI heap-budget smoke report.

   top_heap_words is the process-lifetime maximum of the major heap, so
   a budget check is only meaningful in a process that has run nothing
   but this sweep — the [webdep scale] subcommand exists for exactly
   that; inside the bench the recorded value is cumulative over earlier
   phases and serves as a monotone upper bound.  The dataset's id
   columns and domain buffer live off the major heap, so the count
   leaves them out (~41 bytes a site). *)

module World = Webdep_worldgen.World
module Dataset = Webdep.Dataset

type result = {
  c : int;
  countries : int;
  sites : int;
  seconds : float;
  minor_words : float;
  top_heap_words : int;
  mean_hosting_s : float; (* sanity anchor: scores must survive scaling *)
}

let run ?(seed = 2024) ?countries ?jobs ~c () =
  let t0 = Unix.gettimeofday () in
  let mw0 = Gc.minor_words () in
  let world = World.create ~c ~seed () in
  let ds = Measure.measure_all ?countries ?jobs world in
  let scores = Webdep.Metrics.all_scores ds Hosting in
  let seconds = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. mw0 in
  let mean_hosting_s =
    match scores with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun acc (_, s) -> acc +. s) 0.0 scores
        /. float_of_int (List.length scores)
  in
  {
    c;
    countries = List.length (Dataset.countries ds);
    sites = Dataset.size ds;
    seconds;
    minor_words;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    mean_hosting_s;
  }
