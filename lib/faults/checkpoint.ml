(* Checkpoint/resume for interrupted sweeps.

   A [Segment]: the header is the schema tag plus the parameters every
   sweep sharing the file must agree on, then one record per completed
   (epoch, country) shard (tally + the lane's id columns), so the sweeps
   of several epochs share one file.  Opening reads every intact record
   but decodes only its key; [find] decodes a record when a sweep asks
   for it.  A torn tail is dropped and the file rewritten with the
   intact records before appending resumes.  A checkpoint header that
   does not match the current parameters invalidates the whole file;
   a file that is not a checkpoint at all is refused untouched. *)

module Json = Webdep_json
module D = Webdep.Dataset

let schema = "webdep-checkpoint/4"

let m_written = Webdep_obs.Metrics.counter "checkpoint.countries_written"
let m_resumed = Webdep_obs.Metrics.counter "checkpoint.countries_resumed"

type entry = { epoch : string; tally : Degrade.tally; ids : D.world_ids }

exception Not_a_checkpoint of string

type t = {
  path : string;
  lock : Mutex.t;
  records : (string * string, string) Hashtbl.t;  (* (epoch, country) -> payload *)
}

let columns (w : D.world_ids) = [ w.D.w_hosting; w.D.w_dns; w.D.w_ca; w.D.w_tld ]

(* The key, the tally, the domains, the four id columns (each int32 as
   the u32 of its bits), the aux words, and the name and country of each
   TLD entity the world has no id for. *)
let encode { epoch; tally; ids = w } =
  let n = Bigarray.Array1.dim w.D.w_aux in
  let b = Buffer.create (64 + (48 * n)) in
  List.iter (Segment.add_str b) [ epoch; w.D.w_country ];
  List.iter (Segment.add_u32 b) [ tally.Degrade.clean; tally.degraded; tally.failed ];
  Segment.add_strs b (List.init n (D.domain_at w.D.w_domains));
  List.iter
    (fun (col : D.ids) ->
      for i = 0 to n - 1 do
        Segment.add_u32 b (Int32.to_int col.{i} land 0xFFFFFFFF)
      done)
    (columns w);
  for i = 0 to n - 1 do
    Segment.add_int b w.D.w_aux.{i}
  done;
  Segment.add_strs b
    (Array.fold_right (fun (t : D.entity) acc -> t.D.name :: t.D.country :: acc) w.D.w_other_tlds []);
  Buffer.contents b

let key cur =
  let epoch = Segment.get_str cur in
  (epoch, Segment.get_str cur)

let rec entities = function
  | name :: country :: rest -> { D.name; country } :: entities rest
  | [] -> []
  | [ _ ] -> raise (Segment.Malformed "a TLD name without its country")

let decode payload =
  Segment.decode payload (fun cur ->
      let epoch, country = key cur in
      let clean = Segment.get_u32 cur in
      let degraded = Segment.get_u32 cur in
      let failed = Segment.get_u32 cur in
      let w = D.world_ids ~country (Array.of_list (Segment.get_strs cur)) in
      let n = Bigarray.Array1.dim w.D.w_aux in
      List.iter
        (fun (col : D.ids) ->
          for i = 0 to n - 1 do
            col.{i} <- Int32.of_int (Segment.get_u32 cur)
          done)
        (columns w);
      for i = 0 to n - 1 do
        w.D.w_aux.{i} <- Segment.get_int cur
      done;
      let w_other_tlds = Array.of_list (entities (Segment.get_strs cur)) in
      { epoch; tally = { Degrade.clean; degraded; failed }; ids = { w with D.w_other_tlds } })

(* Whether a header is some schema version's: a JSON object whose
   [schema] names a webdep checkpoint.  Only such a file, or none, may
   be overwritten with a fresh one. *)
let checkpoint_header h =
  match Json.member "schema" (Json.parse h) with
  | Some (Json.String tag) -> String.starts_with ~prefix:"webdep-checkpoint/" tag
  | _ | (exception Json.Parse_error _) -> false

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
  let stale = ref false in
  let init h =
    if h = header then Some []
    else begin
      stale := checkpoint_header h;
      None
    end
  in
  (* Rewrite the file from the intact prefix (atomically, so a kill
     during the rewrite cannot lose the recovered records): drops a torn
     tail and stale checkpoints from mismatched sweeps in one stroke.
     An intact file is appended to as it is; an empty one starts
     fresh. *)
  (match Segment.fold ~path ~init ~f with
  | Segment.Folded { torn = false; _ } -> ()
  | Segment.Folded { acc; torn = true } -> Segment.write ~path ~header (List.rev acc)
  | Segment.No_file -> Segment.write ~path ~header []
  | Segment.Header_mismatch ->
      if !stale || (Unix.stat path).Unix.st_size = 0 then Segment.write ~path ~header []
      else raise (Not_a_checkpoint path));
  { path; lock = Mutex.create (); records }

let find t ~epoch ~fits country =
  match Option.map decode (Hashtbl.find_opt t.records (epoch, country)) with
  | Some e as found when fits e.ids ->
      Webdep_obs.Metrics.incr m_resumed;
      found
  | Some _ | None | (exception Segment.Malformed _) -> None

let record t e =
  let payload = encode e in
  Mutex.protect t.lock (fun () -> Segment.append ~path:t.path [ payload ]);
  Webdep_obs.Metrics.incr m_written
