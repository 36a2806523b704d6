(* Replay state over a churn log: the current site set of every country
   and, per country and layer, a maintained provider tally, advanced
   epoch by epoch.

   Sites are kept per country in a table keyed by domain.  Each entry
   carries a monotone sequence number (baseline sites take 0..n-1 in
   file order, additions take the next counter value) and the four
   tally ids the site was counted under, one per layer.  Sorting by
   sequence reproduces the canonical site order without paying O(world)
   per epoch — materialization is the only O(n log n) step, and it runs
   only when a dataset is actually needed (verification, compaction,
   serving the head).

   A site's labels are hashed once, when it enters through the baseline
   or an addition; its removal decrements the stored ids and hashes no
   entity.  Advancing one epoch thus costs O(churn) tally updates; each
   touched country then rescores by one walk of its count histogram
   ([Dataset.Tally.score]), a few hundred steps whatever the churn, and
   the score stays bit-identical to a cold recomputation over the
   materialized dataset. *)

module D = Webdep.Dataset
module Str_tbl = Hashtbl.Make (String)

let m_removed = Webdep_obs.Metrics.counter "epoch.replay.sites_removed"
let m_added = Webdep_obs.Metrics.counter "epoch.replay.sites_added"
let m_cache_hits = Webdep_obs.Metrics.counter "store.metrics.cache_hits"
let m_incremental = Webdep_obs.Metrics.counter "store.metrics.incremental"
let m_full = Webdep_obs.Metrics.counter "store.metrics.full_solve"

(* One country's tally in one layer, and its 𝒮 cached until the next
   update marks it dirty. *)
type tally = {
  layer : D.layer;
  counts : D.Tally.t;
  mutable total : int;  (* all sites, labelled or not: the insularity denominator *)
  mutable dirty : bool;
  mutable support_changed : bool;
  mutable score : float;  (* valid when [not dirty]; nan while unlabelled *)
}

let tally layer =
  {
    layer;
    counts = D.Tally.create ();
    total = 0;
    dirty = true;
    support_changed = true;
    score = Float.nan;
  }

(* The id of the site's label in the tally (minted on first sight), or
   [-1] when the site has no label in the layer. *)
let tally_id tl s =
  match D.entity_of s tl.layer with None -> -1 | Some e -> D.Tally.id tl.counts e

(* Every site update goes through these two: the tally by id ([-1]
   counts toward the site total only), the site total, and the flags
   the next refresh reads. *)
let add tl id =
  if id >= 0 && D.Tally.add_id tl.counts id then tl.support_changed <- true;
  tl.total <- tl.total + 1;
  tl.dirty <- true

let remove tl id =
  if id >= 0 && D.Tally.remove_id tl.counts id then tl.support_changed <- true;
  tl.total <- tl.total - 1;
  tl.dirty <- true

(* The cached 𝒮, first refreshed from the tally's count histogram if an
   update made it stale.  The counters record whether the refresh
   follows a change of the provider support set ([full_solve]) or not
   ([incremental]); the work is the same histogram walk either way.
   [cache_hits] counts reads of a clean tally. *)
let refresh tl =
  if not tl.dirty then Webdep_obs.Metrics.incr m_cache_hits
  else begin
    Webdep_obs.Metrics.incr (if tl.support_changed then m_full else m_incremental);
    tl.score <-
      (if D.Tally.labelled tl.counts = 0 then Float.nan else D.Tally.score tl.counts);
    tl.dirty <- false;
    tl.support_changed <- false
  end;
  if Float.is_nan tl.score then raise Not_found;
  tl.score

(* One value per layer. *)
type 'a layered = { hosting : 'a; dns : 'a; ca : 'a; tld : 'a }

let layers = { hosting = D.Hosting; dns = D.Dns; ca = D.Ca; tld = D.Tld }
let map f x = { hosting = f x.hosting; dns = f x.dns; ca = f x.ca; tld = f x.tld }

let get layer x =
  match layer with D.Hosting -> x.hosting | D.Dns -> x.dns | D.Ca -> x.ca | D.Tld -> x.tld

let iter2 f a b =
  f a.hosting b.hosting;
  f a.dns b.dns;
  f a.ca b.ca;
  f a.tld b.tld

(* A site with its sequence number and the tally ids it was counted
   under ([-1] where it has no label). *)
type entry = { seq : int; site : D.site; ids : int layered }

type cstate = {
  sites : entry Str_tbl.t;  (* domain -> entry *)
  mutable next_seq : int;
  tallies : tally layered;
}

type t = {
  countries : string list;  (* baseline order *)
  by_country : (string, cstate) Hashtbl.t;
  mutable epoch : int;
}

(* The entry of a site arriving in [cs]: the next sequence number, and
   each label hashed into its layer's tally once. *)
let enter cs (site : D.site) =
  let tl = cs.tallies in
  let seq = cs.next_seq in
  cs.next_seq <- seq + 1;
  {
    seq;
    site;
    ids =
      {
        hosting = tally_id tl.hosting site;
        dns = tally_id tl.dns site;
        ca = tally_id tl.ca site;
        tld = tally_id tl.tld site;
      };
  }

(* The baseline's sites enter the way additions do.  A country listed
   twice keeps its last site list, as a dataset built from the baseline
   would. *)
let start (log : Log.t) =
  let countries = List.map (fun (cd : D.country_data) -> cd.D.country) log.Log.base in
  let by_country = Hashtbl.create 64 in
  List.iter
    (fun (cd : D.country_data) ->
      let cc = cd.D.country in
      if not (Hashtbl.mem by_country cc) then begin
        let cs =
          {
            sites = Str_tbl.create (List.length cd.D.sites);
            next_seq = 0;
            tallies = map tally layers;
          }
        in
        List.iter
          (fun (s : D.site) ->
            let e = enter cs s in
            Str_tbl.replace cs.sites s.D.domain e;
            iter2 add cs.tallies e.ids)
          cd.D.sites;
        Hashtbl.replace by_country cc cs
      end)
    (List.rev log.Log.base);
  { countries; by_country; epoch = log.Log.base_epoch }

let epoch t = t.epoch
let countries t = t.countries

let cstate t cc =
  match Hashtbl.find_opt t.by_country cc with
  | Some cs -> cs
  | None -> invalid_arg (Printf.sprintf "Replay.apply: unknown country %s" cc)

(* One site-table edit of an event, kept until the event is accepted or
   rolled back. *)
type edit = Removed of cstate * entry | Added of cstate * entry

(* The site tables take the whole event before any tally sees it, and
   every edit is journalled: a record rejected part-way (unknown
   country, absent or duplicate domain) rolls all earlier edits back,
   so an event applies whole or not at all.  Records are still checked
   in order against the tables as the earlier ones left them, so the
   verdict is the record-by-record one.  An accepted journal, oldest
   first, is the event's tally updates in record order: each record's
   removals, then its additions. *)
let apply t (ev : Log.event) =
  if ev.Log.epoch <= t.epoch then
    invalid_arg
      (Printf.sprintf "Replay.apply: epoch %d not after %d" ev.Log.epoch t.epoch);
  let journal = ref [] in
  let edit (c : Log.churn) =
    let cs = cstate t c.Log.country in
    List.iter
      (fun dom ->
        match Str_tbl.find_opt cs.sites dom with
        | Some e ->
            Str_tbl.remove cs.sites dom;
            journal := Removed (cs, e) :: !journal
        | None ->
            invalid_arg
              (Printf.sprintf "Replay.apply: %s removes unknown domain %s"
                 c.Log.country dom))
      c.Log.removed;
    List.iter
      (fun (s : D.site) ->
        let dom = s.D.domain in
        if Str_tbl.mem cs.sites dom then
          invalid_arg
            (Printf.sprintf "Replay.apply: %s adds duplicate domain %s"
               c.Log.country dom);
        let e = enter cs s in
        Str_tbl.replace cs.sites dom e;
        journal := Added (cs, e) :: !journal)
      c.Log.added
  in
  (try List.iter edit ev.Log.changes
   with Invalid_argument _ as exn ->
     List.iter
       (function
         | Removed (cs, e) -> Str_tbl.replace cs.sites e.site.D.domain e
         | Added (cs, e) ->
             Str_tbl.remove cs.sites e.site.D.domain;
             cs.next_seq <- cs.next_seq - 1)
       !journal;
     raise exn);
  let removed = ref 0 and added = ref 0 in
  List.iter
    (function
      | Removed (cs, e) ->
          incr removed;
          iter2 remove cs.tallies e.ids
      | Added (cs, e) ->
          incr added;
          iter2 add cs.tallies e.ids)
    (List.rev !journal);
  Webdep_obs.Metrics.incr ~by:!removed m_removed;
  Webdep_obs.Metrics.incr ~by:!added m_added;
  t.epoch <- ev.Log.epoch

(* The tail check comes first and the write last, so a refused event
   leaves both the state and the file as they were. *)
let append t ~path (ev : Log.event) =
  if Log.tail ~path <> Some t.epoch then
    invalid_arg
      (Printf.sprintf "Replay.append: %s does not end in an intact commit of epoch %d"
         path t.epoch);
  apply t ev;
  Log.append ~path ~epoch:ev.Log.epoch ev.Log.changes

(* A score read of a country outside the baseline is [Not_found], as
   of one without a labelled site. *)
let tally_of t layer cc =
  match Hashtbl.find_opt t.by_country cc with
  | Some cs -> get layer cs.tallies
  | None -> raise Not_found

let score t layer cc = refresh (tally_of t layer cc)

(* [Centralization.hhi] is 𝒮 + 1/c. *)
let hhi t layer cc =
  let tl = tally_of t layer cc in
  let s = refresh tl in
  s +. (1.0 /. float_of_int (D.Tally.labelled tl.counts))

let insularity t layer cc =
  let tl = tally_of t layer cc in
  if tl.total = 0 then 0.0
  else float_of_int (D.Tally.home_count tl.counts cc) /. float_of_int tl.total

(* All countries' S in baseline order. *)
let scores t layer =
  List.filter_map
    (fun cc ->
      match score t layer cc with
      | s -> Some (cc, s)
      | exception Not_found -> None)
    t.countries

let materialize_country t cc =
  let cs = cstate t cc in
  let entries = Str_tbl.fold (fun _ e acc -> e :: acc) cs.sites [] in
  let entries = List.sort (fun a b -> Int.compare a.seq b.seq) entries in
  { D.country = cc; sites = List.map (fun e -> e.site) entries }

let materialize t = List.map (materialize_country t) t.countries

(* Replay the whole committed log; [observe] sees the state after the
   baseline and after every epoch — where trend collection and
   epoch-by-epoch verification hook in. *)
let replay ?(observe = fun _ -> ()) (log : Log.t) =
  let t = start log in
  observe t;
  List.iter
    (fun ev ->
      apply t ev;
      observe t)
    log.Log.events;
  t

(* Collapse every epoch up to [head - keep_last] into a new baseline:
   replay that far, materialize, and keep only the trailing events.  The
   sequence-ordered materialization makes the compacted replay's site
   order — and therefore every downstream dataset and score — identical
   to the raw log's. *)
let compact (log : Log.t) ~keep_last =
  if keep_last < 0 then invalid_arg "Replay.compact: negative keep_last";
  let cut = log.Log.head - keep_last in
  if cut <= log.Log.base_epoch then log
  else begin
    let prefix, suffix =
      List.partition (fun (ev : Log.event) -> ev.Log.epoch <= cut) log.Log.events
    in
    let t = start { log with Log.events = prefix } in
    List.iter (apply t) prefix;
    {
      log with
      Log.base_epoch = cut;
      base = materialize t;
      events = suffix;
      dropped = false;
    }
  end
