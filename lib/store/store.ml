module Json = Webdep_json
module D = Webdep.Dataset
module Degrade = Webdep_faults.Degrade
module Segment = Webdep_faults.Segment

let schema = "webdep-store/2"

let m_hits = Webdep_obs.Metrics.counter "store.hits"
let m_misses = Webdep_obs.Metrics.counter "store.misses"
let m_invalidated = Webdep_obs.Metrics.counter "store.invalidated"

type entry = { site : D.site; outcome : Degrade.outcome }

type t = {
  fingerprint : Fingerprint.t;
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
}

let create ~fingerprint () =
  { fingerprint; lock = Mutex.create (); entries = Hashtbl.create 4096 }

let fingerprint t = t.fingerprint
let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)

(* '|' cannot appear in an epoch name, resolution name, country code or
   domain, so the joined key is injective. *)
let key ~epoch ~resolution ~vantage domain =
  String.concat "|" [ epoch; resolution; vantage; domain ]

let find t ~epoch ~resolution ~vantage domain =
  let k = key ~epoch ~resolution ~vantage domain in
  let r = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries k) in
  (match r with
  | Some _ -> Webdep_obs.Metrics.incr m_hits
  | None -> Webdep_obs.Metrics.incr m_misses);
  r

let find_all t ~epoch ~resolution ~vantage domains =
  let r =
    Mutex.protect t.lock @@ fun () ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | d :: rest -> (
          match Hashtbl.find_opt t.entries (key ~epoch ~resolution ~vantage d) with
          | Some e -> go (e :: acc) rest
          | None -> None)
    in
    go [] domains
  in
  (match r with
  | Some es -> Webdep_obs.Metrics.incr ~by:(List.length es) m_hits
  | None -> ());
  r

let add t ~epoch ~resolution ~vantage domain entry =
  let k = key ~epoch ~resolution ~vantage domain in
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.entries k entry)

(* --- spill file -------------------------------------------------------- *)

let header fp =
  Json.to_string (Json.Obj (("schema", Json.String schema) :: Fingerprint.to_meta fp))

let outcomes = [| Degrade.Clean; Degrade.Degraded; Degrade.Failed |]

let encode (k, e) =
  let b = Buffer.create 128 in
  Segment.add_str b k;
  Segment.add_u8 b
    (match e.outcome with Degrade.Clean -> 0 | Degrade.Degraded -> 1 | Degrade.Failed -> 2);
  Segment.add_sites b [ e.site ];
  Buffer.contents b

let decode payload =
  Segment.decode payload (fun cur ->
      let k = Segment.get_str cur in
      let o = Segment.get_u8 cur in
      if o >= Array.length outcomes then raise (Segment.Malformed "unknown outcome");
      match Segment.get_sites cur with
      | [ site ] -> (k, { site; outcome = outcomes.(o) })
      | _ -> raise (Segment.Malformed "expected one site"))

let save t path =
  let items =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.entries [])
  in
  (* Atomic replace: a sweep killed mid-save leaves the previous spill
     intact instead of a truncated file. *)
  Segment.write ~path ~header:(header t.fingerprint)
    (List.map encode (List.sort (fun (a, _) (b, _) -> String.compare a b) items))

let m_torn = Webdep_obs.Metrics.counter "store.spill.torn_recovered"

let load ~path ~fingerprint =
  let t = create ~fingerprint () in
  let expected = header fingerprint in
  (* Stream the spill straight into the table — one record live at a
     time, so loading a large spill never materializes the whole file. *)
  let f () payload =
    let k, e = decode payload in
    Hashtbl.replace t.entries k e;
    Some ()
  in
  (match Segment.fold ~path ~init:(fun h -> if h = expected then Some () else None) ~f with
  | Segment.No_file -> ()
  | Segment.Header_mismatch -> Webdep_obs.Metrics.incr m_invalidated
  | Segment.Folded { acc = (); torn } ->
      (* A torn tail can only come from a filesystem that lost part of
         the rename; keep the intact prefix — everything after the first
         bad record is suspect. *)
      if torn then Webdep_obs.Metrics.incr m_torn);
  t
