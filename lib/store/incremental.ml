module D = Webdep.Dataset
module R = Webdep.Regionalization

let m_cache_hits = Webdep_obs.Metrics.counter "store.metrics.cache_hits"
let m_incremental = Webdep_obs.Metrics.counter "store.metrics.incremental"
let m_full = Webdep_obs.Metrics.counter "store.metrics.full_solve"

type country = {
  layer : D.layer;
  tally : D.Tally.t;
  mutable total : int;  (* all sites, labelled or not: the U/insularity denominator *)
  mutable dirty : bool;
  mutable support_changed : bool;
  mutable score : float;  (* valid when [not dirty]; nan while unlabelled *)
}

type t = {
  order : string list;
  by_country : (string, country) Hashtbl.t;
}

let empty layer order =
  let by_country = Hashtbl.create (List.length order) in
  List.iter
    (fun cc ->
      Hashtbl.replace by_country cc
        {
          layer;
          tally = D.Tally.create ();
          total = 0;
          dirty = true;
          support_changed = true;
          score = Float.nan;
        })
    order;
  { order; by_country }

let countries t = t.order

let country t cc =
  match Hashtbl.find_opt t.by_country cc with
  | Some cs -> cs
  | None -> raise Not_found

let tally_id cs s =
  match D.entity_of s cs.layer with None -> -1 | Some e -> D.Tally.id cs.tally e

(* Every site update goes through these two: the tally by id, the site
   total, and the flags the next refresh reads. *)
let add cs id =
  if id >= 0 && D.Tally.add_id cs.tally id then cs.support_changed <- true;
  cs.total <- cs.total + 1;
  cs.dirty <- true

let remove cs id =
  if id >= 0 && D.Tally.remove_id cs.tally id then cs.support_changed <- true;
  cs.total <- cs.total - 1;
  cs.dirty <- true

let create ds layer =
  let t = empty layer (D.countries ds) in
  Hashtbl.iter
    (fun cc cs -> List.iter (fun s -> add cs (tally_id cs s)) (D.country_exn ds cc).D.sites)
    t.by_country;
  t

let apply t ~country:cc ~added ~removed =
  let cs = country t cc in
  List.iter (fun s -> remove cs (tally_id cs s)) removed;
  List.iter (fun s -> add cs (tally_id cs s)) added

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

let score t cc = refresh (country t cc)

(* [Centralization.hhi] is 𝒮 + 1/c. *)
let hhi t cc =
  let cs = country t cc in
  let s = refresh cs in
  s +. (1.0 /. float_of_int (D.Tally.labelled cs.tally))

let insularity t cc =
  let cs = country t cc in
  if cs.total = 0 then 0.0
  else
    float_of_int (D.Tally.home_count cs.tally cc) /. float_of_int cs.total

let counts t cc = D.Tally.counts (country t cc).tally
let total t cc = (country t cc).total

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
      let cs = country t cc in
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
