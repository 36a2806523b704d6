(* Durable warm-state snapshots for the serving plane.

   A snapshot serializes the daemon's measured inputs — one
   [Dataset.country_data] shard per (epoch, country) — so a restarted
   server rebuilds its warm [Incremental] state from disk in
   milliseconds instead of re-sweeping two epochs.  The format is
   designed around the two crash modes that actually happen:

   - killed mid-*write*: the snapshot is written to a temp file, fsynced
     and renamed into place, so the previous snapshot survives intact;
   - killed mid-*rename* on a filesystem that lost the tail (or a
     pre-atomic copy truncated in transit): every record carries its own
     CRC-32 and length, so [load] keeps the intact prefix of shards and
     reports the file as torn — the caller re-measures only the missing
     (epoch, country) shards.

   Layout: a [Webdep_faults.Segment] — CRC-framed records, written
   atomically.  The header holds the schema tag, fingerprint, explicit
   country list and expected shard count; every following
   record is one shard (epoch, country, site list).  The fingerprint
   covers the world parameters but *not* a [--countries] filter, which
   is why the header carries the country list explicitly — a snapshot
   taken under a filter must not warm a server asked for a different
   slice. *)

module D = Webdep.Dataset
module Segment = Webdep_faults.Segment

let schema = "webdep-snapshot/3"

let m_saved = Webdep_obs.Metrics.counter "serve.snapshot.saved"
let m_loaded = Webdep_obs.Metrics.counter "serve.snapshot.loaded"
let m_rejected = Webdep_obs.Metrics.counter "serve.snapshot.rejected"
let m_torn = Webdep_obs.Metrics.counter "serve.snapshot.torn_recovered"

type shard = { epoch : string; data : D.country_data }

type load =
  | Absent
  | Rejected  (** unreadable header, schema/fingerprint/countries mismatch *)
  | Loaded of shard list
  | Torn of shard list  (** intact prefix of a truncated/corrupted file *)

(* --- shard and header records --------------------------------------------- *)

let encode_shard { epoch; data } =
  let b = Buffer.create (64 * List.length data.D.sites) in
  Segment.add_str b epoch;
  Segment.add_str b data.D.country;
  Segment.add_sites b data.D.sites;
  Buffer.contents b

let decode_shard payload =
  Segment.decode payload (fun cur ->
      let epoch = Segment.get_str cur in
      let country = Segment.get_str cur in
      { epoch; data = { D.country; sites = Segment.get_sites cur } })

let encode_header ~fingerprint ~countries ~shard_count =
  let b = Buffer.create 256 in
  Segment.add_str b schema;
  Segment.add_str b fingerprint;
  Segment.add_strs b countries;
  Segment.add_u32 b shard_count;
  Buffer.contents b

(* The expected shard count when the header is this schema's and
   matches the requested world and country slice. *)
let check_header ~fingerprint ~countries payload =
  Segment.decode payload (fun cur ->
      let tag = Segment.get_str cur in
      let fp = Segment.get_str cur in
      let ccs = Segment.get_strs cur in
      let shards = Segment.get_u32 cur in
      if tag = schema && fp = fingerprint && ccs = countries then Some shards else None)

(* --- save / load -------------------------------------------------------- *)

let save ~path ~fingerprint datasets =
  let countries =
    match datasets with (_, ds) :: _ -> D.countries ds | [] -> []
  in
  let shard_count = List.length datasets * List.length countries in
  Segment.write ~path
    ~header:(encode_header ~fingerprint ~countries ~shard_count)
    (List.concat_map
       (fun (epoch, ds) ->
         List.map (fun cc -> encode_shard { epoch; data = D.country_exn ds cc }) countries)
       datasets);
  Webdep_obs.Metrics.incr m_saved

let load ~path ~fingerprint ~countries =
  let init h = Option.map (fun n -> (n, [])) (check_header ~fingerprint ~countries h) in
  let f (n, acc) payload = Some (n, decode_shard payload :: acc) in
  match Segment.fold ~path ~init ~f with
  | Segment.No_file -> Absent
  | Segment.Header_mismatch ->
      Webdep_obs.Metrics.incr m_rejected;
      Rejected
  | Segment.Folded { acc = n, rev; torn } ->
      let got = List.rev rev in
      if torn || List.length got <> n then (
        Webdep_obs.Metrics.incr m_torn;
        Torn got)
      else (
        Webdep_obs.Metrics.incr m_loaded;
        Loaded got)

(* --- rebuilding datasets from shards ------------------------------------ *)

(* Regroup loaded shards into per-epoch datasets, in snapshot country
   order.  [fill] supplies any shard the snapshot was missing (the torn
   case) — typically a re-measure of just that (epoch, country); the
   complete [Loaded] case never calls it. *)
let to_datasets ~epochs ~countries ~fill shards =
  let tbl = Hashtbl.create 512 in
  List.iter (fun s -> Hashtbl.replace tbl (s.epoch, s.data.D.country) s.data) shards;
  List.map
    (fun epoch ->
      let b = D.builder () in
      List.iter
        (fun cc ->
          let data =
            match Hashtbl.find_opt tbl (epoch, cc) with
            | Some d -> d
            | None -> fill epoch cc
          in
          D.builder_add b data)
        countries;
      (epoch, D.builder_finish b))
    epochs
