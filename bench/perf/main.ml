(* webdep end-to-end benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload in this process (and, for the query workloads, a
   [webdep serve] child) and prints one JSON result line last on stdout:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones of BENCHMARK.json, measured untraced;
   with --trace 1 they are its per-layer ones, from spans the benchmark
   records around its calls into each layer, and the run also writes a
   Perfetto file under bench/perf/_out and prints a self-time table.
   Metric names and units come from BENCHMARK.json at the checkout root;
   a per-layer metric of a layer the workload never enters reads 0.
   Exits 1 when a correctness check fails.  See README.md. *)

open Common

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let workloads =
  [
    ("sweep", fun ~seed ~seconds ~traced ->
        if traced then Sweep.traced ~seed else Sweep.untraced ~seed ~seconds);
    ("query_hot", fun ~seed ~seconds ~traced -> Query.run ~seed ~seconds ~traced Query.Hot);
    ("query_cold", fun ~seed ~seconds ~traced -> Query.run ~seed ~seconds ~traced Query.Cold);
    ("epoch_ingest", fun ~seed ~seconds ~traced -> Ingest.run ~seed ~seconds ~traced);
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* The declared (name, unit) list of one tier of BENCHMARK.json. *)
let declared tier =
  let module J = Webdep_json in
  let doc = try J.parse (read_file "BENCHMARK.json") with _ -> fail "cannot read BENCHMARK.json" in
  match J.member tier doc with
  | Some (J.List items) ->
      List.map
        (fun it ->
          match (J.member "name" it, J.member "unit" it) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> fail "BENCHMARK.json: malformed %s entry" tier)
        items
  | _ -> fail "BENCHMARK.json: no %s list" tier

let result_line ~tier ~correct (r : result) =
  let module J = Webdep_json in
  let decl = declared tier in
  List.iter
    (fun x -> if not (List.mem_assoc x.name decl) then fail "metric %s is not in BENCHMARK.json %s" x.name tier)
    r.metrics;
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match List.find_opt (fun x -> String.equal x.name name) r.metrics with
          | Some x when not (String.equal x.unit_ unit_) ->
              fail "metric %s measured in %s, declared in %s" name x.unit_ unit_
          | Some x -> x.value
          | None when tier = "per_layer" -> 0.0
          | None -> fail "workload did not measure %s" name
        in
        (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit_) ]))
      decl
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", J.Obj metrics);
       ])

let () =
  let workload = ref "" and seed = ref 2024 and seconds = ref 12 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep|query_hot|query_cold|epoch_ingest");
      ("--seed", Arg.Set_int seed, "N world, key and churn seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> fail "unknown workload %S (%s)" !workload (String.concat ", " (List.map fst workloads))
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !seconds < 1 then fail "--seconds must be >= 1";
  let traced = !trace = 1 in
  let tier = if traced then "per_layer" else "end_to_end" in
  ignore (declared tier);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ensure_out_dir ();
  (* Two lanes: the container has two cores.  The query workloads use
     them to build their reference state, then give one to the daemon
     and one to the load generator; epoch_ingest ingests on one. *)
  Webdep_par.set_jobs 2;
  Tracing.enabled := traced;
  let r = run ~seed:!seed ~seconds:!seconds ~traced in
  if traced then
    Tracing.finish
      ~path:(Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed));
  let correct =
    r.correct
    && check (List.for_all (fun x -> Float.is_finite x.value) r.metrics) "a metric is not a finite number"
  in
  print_endline (result_line ~tier ~correct r);
  exit (if correct then 0 else 1)
