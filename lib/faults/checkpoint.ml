(* Checkpoint/resume for interrupted sweeps.

   A [Segment]: the header is the schema tag plus the sweep parameters,
   then one record per completed country shard (tally + sites).  On
   open we load every intact record; a torn tail (the process was
   killed mid-write) is dropped and the file is rewritten with only the
   intact entries before appending resumes.  A header that does not
   match the current sweep parameters invalidates the whole file —
   resuming under different parameters would silently mix two different
   worlds. *)

module Json = Webdep_json
module D = Webdep.Dataset

let schema = "webdep-checkpoint/2"

let m_written = Webdep_obs.Metrics.counter "checkpoint.countries_written"
let m_resumed = Webdep_obs.Metrics.counter "checkpoint.countries_resumed"

type entry = {
  country : string;
  tally : Degrade.tally;
  data : D.country_data;
}

type t = {
  path : string;
  lock : Mutex.t;
  loaded : (string, entry) Hashtbl.t;
}

let encode e =
  let b = Buffer.create 4096 in
  Segment.add_str b e.country;
  Segment.add_u32 b e.tally.Degrade.clean;
  Segment.add_u32 b e.tally.Degrade.degraded;
  Segment.add_u32 b e.tally.Degrade.failed;
  Segment.add_sites b e.data.D.sites;
  Buffer.contents b

let decode payload =
  Segment.decode payload (fun cur ->
      let country = Segment.get_str cur in
      let clean = Segment.get_u32 cur in
      let degraded = Segment.get_u32 cur in
      let failed = Segment.get_u32 cur in
      let sites = Segment.get_sites cur in
      {
        country;
        tally = { Degrade.clean; degraded; failed };
        data = { D.country; sites };
      })

let open_ ~path ~meta =
  let header = Json.to_string (Json.Obj (("schema", Json.String schema) :: meta)) in
  (* Stream the intact prefix into the resume table, keeping each
     record's bytes for the rewrite below. *)
  let loaded = Hashtbl.create 64 in
  let f acc payload =
    let e = decode payload in
    Hashtbl.replace loaded e.country e;
    Some (payload :: acc)
  in
  let intact =
    match Segment.fold ~path ~init:(fun h -> if h = header then Some [] else None) ~f with
    | Segment.No_file | Segment.Header_mismatch -> []
    | Segment.Folded { acc; torn = _ } -> List.rev acc
  in
  (* Rewrite the file from the intact prefix (atomically, so a kill
     during the rewrite cannot lose the recovered entries): drops a torn
     tail and stale files from mismatched sweeps in one stroke. *)
  Segment.write ~path ~header intact;
  { path; lock = Mutex.create (); loaded }

let find t country =
  match Hashtbl.find_opt t.loaded country with
  | Some e ->
      Webdep_obs.Metrics.incr m_resumed;
      Some e
  | None -> None

let loaded t = Hashtbl.length t.loaded

let record t e =
  let payload = encode e in
  Mutex.protect t.lock (fun () -> Segment.append ~path:t.path [ payload ]);
  Webdep_obs.Metrics.incr m_written
