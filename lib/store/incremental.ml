module D = Webdep.Dataset
module R = Webdep.Regionalization

let m_cache_hits = Webdep_obs.Metrics.counter "store.metrics.cache_hits"
let m_incremental = Webdep_obs.Metrics.counter "store.metrics.incremental"
let m_full = Webdep_obs.Metrics.counter "store.metrics.full_solve"

type cstate = {
  tally : D.Tally.t;
  mutable total : int;  (* all sites, labelled or not: the U/insularity denominator *)
  mutable dirty : bool;
  mutable support_changed : bool;
  mutable score : float;  (* valid when [not dirty]; nan while unlabelled *)
}

type t = {
  layer : D.layer;
  order : string list;
  by_country : (string, cstate) Hashtbl.t;
}

let create ds layer =
  let order = D.countries ds in
  let by_country = Hashtbl.create (List.length order) in
  List.iter
    (fun cc ->
      let cd = D.country_exn ds cc in
      Hashtbl.replace by_country cc
        {
          tally = D.Tally.of_sites cd.D.sites layer;
          total = List.length cd.D.sites;
          dirty = true;
          support_changed = true;
          score = Float.nan;
        })
    order;
  { layer; order; by_country }

let countries t = t.order

let state t cc =
  match Hashtbl.find_opt t.by_country cc with
  | Some cs -> cs
  | None -> raise Not_found

let apply t ~country ~added ~removed =
  let cs = state t country in
  List.iter
    (fun s -> if D.Tally.remove_site cs.tally t.layer s then cs.support_changed <- true)
    removed;
  List.iter
    (fun s -> if D.Tally.add_site cs.tally t.layer s then cs.support_changed <- true)
    added;
  cs.total <- cs.total + List.length added - List.length removed;
  cs.dirty <- true

(* The country's cached 𝒮, first refreshed from the tally's count
   histogram if a delta made it stale.  The counters record whether the
   refresh follows a change of the provider support set ([full_solve])
   or not ([incremental]); the work is the same histogram walk either
   way. *)
let refresh cs =
  if not cs.dirty then Webdep_obs.Metrics.incr m_cache_hits
  else begin
    Webdep_obs.Metrics.incr (if cs.support_changed then m_full else m_incremental);
    cs.score <-
      (if D.Tally.labelled cs.tally = 0 then Float.nan else D.Tally.score cs.tally);
    cs.dirty <- false;
    cs.support_changed <- false
  end;
  if Float.is_nan cs.score then raise Not_found;
  cs.score

let score t cc = refresh (state t cc)

(* [Centralization.hhi] is 𝒮 + 1/c. *)
let hhi t cc =
  let cs = state t cc in
  let s = refresh cs in
  s +. (1.0 /. float_of_int (D.Tally.labelled cs.tally))

let insularity t cc =
  let cs = state t cc in
  if cs.total = 0 then 0.0
  else
    float_of_int (D.Tally.home_count cs.tally cc) /. float_of_int cs.total

let counts t cc = D.Tally.counts (state t cc).tally
let total t cc = (state t cc).total

(* Replicates [Regionalization.usage_table] for one provider name: walk
   countries in dataset order, walk each canonical count list in order
   (later same-name entries overwrite the slot, as the table's
   [curve.(i) <- ...] does), keep the first-encountered entity. *)
let usage t ~name =
  let n = List.length t.order in
  let curve = Array.make n 0.0 in
  let entity = ref None in
  List.iteri
    (fun i cc ->
      let cs = state t cc in
      let total = float_of_int cs.total in
      List.iter
        (fun ((e : D.entity), k) ->
          if String.equal e.D.name name then begin
            if !entity = None then entity := Some e;
            curve.(i) <- 100.0 *. float_of_int k /. total
          end)
        (D.Tally.counts cs.tally))
    t.order;
  match !entity with
  | None -> raise Not_found
  | Some e -> R.stats_of_curve e curve
