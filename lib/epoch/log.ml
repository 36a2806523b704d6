(* The append-only churn transaction log (tlog) behind multi-epoch
   replay.

   On disk the log is a [Webdep_faults.Segment]:

     header       schema tag, base epoch, caller meta as a JSON string
     baseline     one 'B' record per country (country, site list), the
                  compacted head, closed by a commit for the base epoch
     per epoch    'C' churn records (country, removed domains, added
                  sites), closed by a 'K' commit record for the epoch

   Every write ends with a fixed-size commit record: 8 bytes of frame,
   the tag and an 8-byte epoch, 17 bytes in all.  [create] and [write]
   replace the file atomically; [append] first reads those trailing 17
   bytes and refuses to extend a log that does not end in an intact
   commit below the new epoch, so an append can never land after a torn
   tail (where [load] would stop before it) or behind a later epoch.
   That is a check of framing only: whether the records apply is
   [Replay.append]'s to check, which holds the replayed state.
   [load] keeps the longest committed prefix: a torn or corrupt record,
   or churn without its commit, drops the rest, and a log whose
   baseline never committed is no log at all. *)

module Json = Webdep_json
module D = Webdep.Dataset
module Segment = Webdep_faults.Segment

let schema = "webdep-epoch/2"

let m_appended = Webdep_obs.Metrics.counter "epoch.log.epochs_appended"
let m_dropped = Webdep_obs.Metrics.counter "epoch.log.epochs_dropped"

type churn = { country : string; removed : string list; added : D.site list }
type event = { epoch : int; changes : churn list }

type t = {
  meta : (string * Json.t) list;
  base_epoch : int;
  base : D.country_data list;  (* canonical country order *)
  events : event list;  (* committed, ascending epoch order *)
  head : int;  (* last committed epoch; [base_epoch] when no events *)
  dropped : bool;  (* a torn tail or uncommitted epoch was discarded *)
}

type verdict = Absent | Mismatch of string | Loaded of t

(* --- records ------------------------------------------------------------ *)

type record = Base of D.country_data | Churn of churn | Commit of int

let encode_header ~meta ~base_epoch =
  let b = Buffer.create 128 in
  Segment.add_str b schema;
  Segment.add_int b base_epoch;
  Segment.add_str b (Json.to_string (Json.Obj meta));
  Buffer.contents b

let encode r =
  let b = Buffer.create 1024 in
  (match r with
  | Base cd ->
      Buffer.add_char b 'B';
      Segment.add_str b cd.D.country;
      Segment.add_sites b cd.D.sites
  | Churn c ->
      Buffer.add_char b 'C';
      Segment.add_str b c.country;
      Segment.add_strs b c.removed;
      Segment.add_sites b c.added
  | Commit epoch ->
      Buffer.add_char b 'K';
      Segment.add_int b epoch);
  Buffer.contents b

let commit_len = 9

let decode payload =
  Segment.decode payload (fun cur ->
      match Char.chr (Segment.get_u8 cur) with
      | 'B' ->
          let country = Segment.get_str cur in
          Base { D.country; sites = Segment.get_sites cur }
      | 'C' ->
          let country = Segment.get_str cur in
          let removed = Segment.get_strs cur in
          Churn { country; removed; added = Segment.get_sites cur }
      | 'K' -> Commit (Segment.get_int cur)
      | c -> raise (Segment.Malformed (Printf.sprintf "unknown record tag %C" c)))

let event_records ev =
  List.map (fun c -> encode (Churn c)) ev.changes @ [ encode (Commit ev.epoch) ]

(* --- writing ------------------------------------------------------------ *)

let write ~path t =
  Segment.write ~path
    ~header:(encode_header ~meta:t.meta ~base_epoch:t.base_epoch)
    (List.map (fun cd -> encode (Base cd)) t.base
    @ (encode (Commit t.base_epoch) :: List.concat_map event_records t.events))

let create ~path ?(meta = []) ~base_epoch ~base () =
  write ~path
    { meta; base_epoch; base; events = []; head = base_epoch; dropped = false }

let tail ~path =
  match Segment.last ~path ~len:commit_len with
  | None -> None
  | Some payload -> (
      match decode payload with
      | Commit e -> Some e
      | Base _ | Churn _ | (exception Segment.Malformed _) -> None)

let append ~path ~epoch changes =
  let extends = match tail ~path with Some e -> e < epoch | None -> false in
  if not extends then
    invalid_arg
      (Printf.sprintf
         "Log.append: %s does not end in an intact commit below epoch %d (load and \
          rewrite it first)"
         path epoch);
  Segment.append ~path (event_records { epoch; changes });
  Webdep_obs.Metrics.incr m_appended

(* --- loading ------------------------------------------------------------ *)

(* The fold's accumulator: the log so far (base and events reversed,
   head the last commit), the churn awaiting its commit (reversed), and
   whether the baseline has committed. *)
let init header =
  Segment.decode header (fun cur ->
      let tag = Segment.get_str cur in
      let base_epoch = Segment.get_int cur in
      match Json.parse (Segment.get_str cur) with
      | Json.Obj meta when tag = schema ->
          let log =
            { meta; base_epoch; base = []; events = []; head = base_epoch; dropped = false }
          in
          Some (log, [], false)
      | _ | (exception Json.Parse_error _) -> None)

let step (log, pending, committed) payload =
  match (decode payload, committed) with
  | Base cd, false -> Some ({ log with base = cd :: log.base }, [], false)
  | Commit e, false when e = log.base_epoch -> Some (log, [], true)
  | Churn c, true -> Some (log, c :: pending, true)
  | Commit epoch, true when epoch > log.head ->
      let ev = { epoch; changes = List.rev pending } in
      Some ({ log with events = ev :: log.events; head = epoch }, [], true)
  | _ -> None

let load ~path =
  match Segment.fold ~path ~init ~f:step with
  | Segment.No_file -> Absent
  | Segment.Header_mismatch -> Mismatch ("not a " ^ schema ^ " log")
  | Segment.Folded { acc = _, _, false; torn = _ } -> Mismatch "baseline never committed"
  | Segment.Folded { acc = log, pending, true; torn } ->
      let dropped = torn || pending <> [] in
      if dropped then Webdep_obs.Metrics.incr m_dropped;
      Loaded { log with base = List.rev log.base; events = List.rev log.events; dropped }
