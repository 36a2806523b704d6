(* Replay state over a churn log: the current site set of every country
   plus one [Webdep_store.Incremental] per layer, advanced epoch by
   epoch.

   Sites are kept per country in a hashtable keyed by domain, each
   carrying a monotone sequence number (baseline sites take 0..n-1 in
   file order, additions take the next counter value).  Sorting by
   sequence reproduces the canonical site order without paying O(world)
   per epoch — materialization is the only O(n log n) step, and it runs
   only when a dataset is actually needed (verification, compaction,
   serving the head).

   Advancing one epoch folds its churn through the four per-layer
   Incrementals in O(churn) tally updates; each touched country then
   rescores by one walk of its count histogram, a few hundred steps
   whatever the churn.  The scores stay bit-identical to a cold
   recomputation over the materialized dataset (the invariant
   [Incremental] already guarantees). *)

module D = Webdep.Dataset
module Inc = Webdep_store.Incremental

let m_removed = Webdep_obs.Metrics.counter "epoch.replay.sites_removed"
let m_added = Webdep_obs.Metrics.counter "epoch.replay.sites_added"

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

type cstate = {
  sites : (string, int * D.site) Hashtbl.t;  (* domain -> seq, site *)
  mutable next_seq : int;
}

type t = {
  countries : string list;  (* baseline order *)
  by_country : (string, cstate) Hashtbl.t;
  incs : (D.layer * Inc.t) list;
  mutable epoch : int;
}

let start (log : Log.t) =
  let ds = D.of_country_data log.Log.base in
  let by_country = Hashtbl.create 64 in
  List.iter
    (fun (cd : D.country_data) ->
      let cs = { sites = Hashtbl.create 512; next_seq = 0 } in
      List.iter
        (fun (s : D.site) ->
          Hashtbl.replace cs.sites s.D.domain (cs.next_seq, s);
          cs.next_seq <- cs.next_seq + 1)
        cd.D.sites;
      Hashtbl.replace by_country cd.D.country cs)
    log.Log.base;
  {
    countries = List.map (fun (cd : D.country_data) -> cd.D.country) log.Log.base;
    by_country;
    incs = List.map (fun l -> (l, Inc.create ds l)) layers;
    epoch = log.Log.base_epoch;
  }

let epoch t = t.epoch
let countries t = t.countries

let cstate t cc =
  match Hashtbl.find_opt t.by_country cc with
  | Some cs -> cs
  | None -> invalid_arg (Printf.sprintf "Replay.apply: unknown country %s" cc)

(* The site tables take the whole event before any tally sees it, and
   every edit pushes its undo: a record rejected part-way (unknown
   country, absent or duplicate domain) rolls all earlier edits back,
   so an event applies whole or not at all.  Records are still checked
   in order against the tables as the earlier ones left them, so the
   verdict is the record-by-record one, and an accepted event costs the
   same table lookups as applying it directly. *)
let apply t (ev : Log.event) =
  if ev.Log.epoch <= t.epoch then
    invalid_arg
      (Printf.sprintf "Replay.apply: epoch %d not after %d" ev.Log.epoch t.epoch);
  let undo = ref [] in
  let edit (c : Log.churn) =
    let cs = cstate t c.Log.country in
    let removed =
      List.map
        (fun dom ->
          match Hashtbl.find_opt cs.sites dom with
          | Some ((_, s) as entry) ->
              Hashtbl.remove cs.sites dom;
              undo := (fun () -> Hashtbl.replace cs.sites dom entry) :: !undo;
              s
          | None ->
              invalid_arg
                (Printf.sprintf "Replay.apply: %s removes unknown domain %s"
                   c.Log.country dom))
        c.Log.removed
    in
    List.iter
      (fun (s : D.site) ->
        let dom = s.D.domain in
        if Hashtbl.mem cs.sites dom then
          invalid_arg
            (Printf.sprintf "Replay.apply: %s adds duplicate domain %s"
               c.Log.country dom);
        Hashtbl.replace cs.sites dom (cs.next_seq, s);
        cs.next_seq <- cs.next_seq + 1;
        undo :=
          (fun () ->
            Hashtbl.remove cs.sites dom;
            cs.next_seq <- cs.next_seq - 1)
          :: !undo)
      c.Log.added;
    (c, removed)
  in
  let edits =
    try List.map edit ev.Log.changes
    with Invalid_argument _ as e ->
      List.iter (fun f -> f ()) !undo;
      raise e
  in
  List.iter
    (fun ((c : Log.churn), removed) ->
      Webdep_obs.Metrics.incr ~by:(List.length removed) m_removed;
      Webdep_obs.Metrics.incr ~by:(List.length c.Log.added) m_added;
      List.iter
        (fun (_, inc) ->
          Inc.apply inc ~country:c.Log.country ~added:c.Log.added ~removed)
        t.incs)
    edits;
  t.epoch <- ev.Log.epoch

let inc t layer = List.assoc layer t.incs

let score t layer cc = Inc.score (inc t layer) cc
let hhi t layer cc = Inc.hhi (inc t layer) cc
let insularity t layer cc = Inc.insularity (inc t layer) cc

(* All countries' S in baseline order. *)
let scores t layer =
  let inc = inc t layer in
  List.filter_map
    (fun cc ->
      match Inc.score inc cc with
      | s -> Some (cc, s)
      | exception Not_found -> None)
    t.countries

let materialize_country t cc =
  let cs = cstate t cc in
  let sites = Hashtbl.fold (fun _ entry acc -> entry :: acc) cs.sites [] in
  let sites =
    List.sort (fun (a, _) (b, _) -> Stdlib.compare (a : int) b) sites
  in
  { D.country = cc; sites = List.map snd sites }

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
