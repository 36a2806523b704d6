(* Checkpoint/resume for interrupted sweeps.

   A [Segment]: the header is the schema tag plus the parameters every
   sweep sharing the file must agree on, then one record per completed
   (epoch, country) shard (tally + sites), so the sweeps of several
   epochs share one file.  On open we read every intact record but
   decode only its (epoch, country) key; [find] decodes a record when a
   sweep asks for it, so a sweep never pays for another epoch's sites.
   A torn tail (the process was killed mid-write) is dropped and the
   file is rewritten with only the intact records before appending
   resumes.  A header that does not match the current parameters
   invalidates the whole file — resuming under different parameters
   would silently mix two different worlds. *)

module Json = Webdep_json
module D = Webdep.Dataset

let schema = "webdep-checkpoint/3"

let m_written = Webdep_obs.Metrics.counter "checkpoint.countries_written"
let m_resumed = Webdep_obs.Metrics.counter "checkpoint.countries_resumed"

type entry = {
  epoch : string;
  country : string;
  tally : Degrade.tally;
  data : D.country_data;
}

type t = {
  path : string;
  lock : Mutex.t;
  records : (string * string, string) Hashtbl.t;  (* (epoch, country) -> payload *)
}

let encode e =
  let b = Buffer.create 4096 in
  Segment.add_str b e.epoch;
  Segment.add_str b e.country;
  Segment.add_u32 b e.tally.Degrade.clean;
  Segment.add_u32 b e.tally.Degrade.degraded;
  Segment.add_u32 b e.tally.Degrade.failed;
  Segment.add_sites b e.data.D.sites;
  Buffer.contents b

let key cur =
  let epoch = Segment.get_str cur in
  (epoch, Segment.get_str cur)

let decode payload =
  Segment.decode payload (fun cur ->
      let epoch, country = key cur in
      let clean = Segment.get_u32 cur in
      let degraded = Segment.get_u32 cur in
      let failed = Segment.get_u32 cur in
      let sites = Segment.get_sites cur in
      {
        epoch;
        country;
        tally = { Degrade.clean; degraded; failed };
        data = { D.country; sites };
      })

let open_ ~path ~meta =
  let header = Json.to_string (Json.Obj (("schema", Json.String schema) :: meta)) in
  (* Index the intact prefix by key, keeping the records in file order
     for the rewrite below; a later record of a key replaces an earlier
     one. *)
  let records = Hashtbl.create 64 in
  let f acc payload =
    Hashtbl.replace records (Segment.peek payload key) payload;
    Some (payload :: acc)
  in
  (* Rewrite the file from the intact prefix (atomically, so a kill
     during the rewrite cannot lose the recovered records): drops a torn
     tail and stale files from mismatched sweeps in one stroke.  An
     intact file is appended to as it is. *)
  (match Segment.fold ~path ~init:(fun h -> if h = header then Some [] else None) ~f with
  | Segment.Folded { torn = false; _ } -> ()
  | Segment.Folded { acc; torn = true } -> Segment.write ~path ~header (List.rev acc)
  | Segment.No_file | Segment.Header_mismatch -> Segment.write ~path ~header []);
  { path; lock = Mutex.create (); records }

let find t ~epoch country =
  match Option.map decode (Hashtbl.find_opt t.records (epoch, country)) with
  | Some _ as found ->
      Webdep_obs.Metrics.incr m_resumed;
      found
  | None | (exception Segment.Malformed _) -> None

let record t e =
  let payload = encode e in
  Mutex.protect t.lock (fun () -> Segment.append ~path:t.path [ payload ]);
  Webdep_obs.Metrics.incr m_written
