(* Daemon state: one immutable answer table per (epoch, layer), built
   once by [make] and reached through a hash table keyed by epoch name.
   A table holds every country's S/HHI/insularity row and the full
   cross-country ranking, pre-sorted; the tables of a measured
   (dataset-backed) epoch also keep every country's provider counts,
   of which the top-k share query reads a prefix.  Churn-log epochs
   arrive as score rows only.  Nothing an
   answer reads changes once the daemon listens, so a score is a lookup
   of the epoch, of the country's index and of one array cell, a delta
   is two of those, and a ranking of k copies the first k entries of an
   array.  Rows and rankings are arrays rather than hash tables and
   lists because a lookup then touches a cache line or two instead of a
   chain of scattered blocks: walking a 150-entry ranking list cost
   about 2 µs per uncached query, the array about 0.3 µs.  [answer] is
   a pure function of the state and the request — the daemon, the bench
   load generator and the one-shot [webdep query] subcommand all go
   through it, which is what makes daemon answers byte-identical to
   local ones. *)

module D = Webdep.Dataset
module P = Protocol
module Tbl = Hashtbl.Make (String)

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

type score_row = { s : float; hhi : float; insularity : float }

(* A table's row for a country it has no score for; only ever compared
   with [==]. *)
let absent = { s = Float.nan; hhi = Float.nan; insularity = Float.nan }

(* A measured country's provider counts in one layer, count-descending
   with ties by name then home, and its site total, labelled or not:
   the top-k shares' numerators and denominator. *)
type counts = { providers : (D.entity * int) array; sites : int }

(* The counts of a country the epoch did not measure; only ever compared
   with [==]. *)
let unmeasured = { providers = [||]; sites = 0 }

type table = {
  rows : score_row array;  (* by country index; [absent] where there is no score *)
  ranking : (string * float) array;  (* S descending, then country ascending *)
  counts : counts array option;
      (* measured epochs only: by country index, [unmeasured] where the
         dataset lacks the country *)
}

(* One slot per layer, indexed by [Protocol.layer_code]; [None] is a
   layer the epoch did not load.  A measured epoch loads every layer. *)
type epoch = table option array

type t = {
  countries : string list;  (* the first dataset's countries, in its order *)
  names : string list;  (* every loaded epoch in load order, repeats included *)
  loaded : string;  (* [names] joined, for the unknown-epoch error *)
  epochs : epoch Tbl.t;  (* the first-loaded epoch of each name *)
  index : int Tbl.t;  (* country -> its cell in every table's [rows] *)
}

(* --- churn-log epochs ------------------------------------------------------ *)

module Log = Webdep_epoch.Log
module Replay = Webdep_epoch.Replay

(* Every observed epoch of a replay of [log], named "e<k>", with each
   layer's rows in the replay's baseline order (countries without a
   labelled site left out). *)
let replay_rows log =
  let acc = ref [] in
  let observe r =
    let rows l =
      List.filter_map
        (fun cc ->
          match Replay.score r l cc with
          | s -> Some (cc, { s; hhi = Replay.hhi r l cc; insularity = Replay.insularity r l cc })
          | exception Not_found -> None)
        (Replay.countries r)
    in
    acc := (Printf.sprintf "e%d" (Replay.epoch r), List.map (fun l -> (l, rows l)) layers) :: !acc
  in
  ignore (Replay.replay ~observe log);
  Array.of_list (List.rev !acc)

(* [log] as [n] sub-logs, one per contiguous run of the baseline's
   countries (a single one when a country repeats).  Each keeps every
   epoch, holding only its countries' records, so each observes every
   epoch.  The first also takes the records of countries outside the
   baseline: its replay refuses them, as the whole log's would. *)
let split_log n (log : Log.t) =
  let ccs = List.map (fun (cd : D.country_data) -> cd.D.country) log.Log.base in
  let len = List.length ccs in
  let n = if List.length (List.sort_uniq String.compare ccs) < len then 1 else max 1 (min n len) in
  let group = Hashtbl.create len in
  List.iteri (fun i cc -> Hashtbl.replace group cc (i * n / len)) ccs;
  let group_of cc = Option.value (Hashtbl.find_opt group cc) ~default:0 in
  List.init n (fun g ->
      let mine cc = group_of cc = g in
      let event (ev : Log.event) =
        let changes = List.filter (fun (c : Log.churn) -> mine c.Log.country) ev.Log.changes in
        { ev with Log.changes }
      in
      {
        log with
        Log.base = List.filter (fun (cd : D.country_data) -> mine cd.D.country) log.Log.base;
        events = List.map event log.Log.events;
      })

(* Countries are independent in [Replay], so replaying the sub-logs on
   the pool and concatenating each epoch's rows in group order gives the
   whole log's rows bit for bit.  A replay error re-runs the log as one
   group, so the error raised is the sequential replay's at any
   [--jobs]. *)
let scored_of_log log =
  let in_groups n =
    let groups = Webdep_par.map replay_rows (split_log n log) in
    let rows i l = List.concat_map (fun g -> List.assoc l (snd g.(i))) groups in
    List.mapi
      (fun i (name, by_layer) -> (name, List.map (fun (l, _) -> (l, rows i l)) by_layer))
      (Array.to_list (List.hd groups))
  in
  match Webdep_par.jobs () with
  | 1 -> in_groups 1
  | n -> ( try in_groups n with Invalid_argument _ -> in_groups 1)

(* The ranking of [ccs] that have a row. *)
let rank index rows ccs =
  List.filter_map
    (fun cc ->
      let r = rows.(Tbl.find index cc) in
      if r == absent then None else Some (cc, r.s))
    ccs
  |> List.sort (fun (cc1, s1) (cc2, s2) ->
         match Float.compare s2 s1 with 0 -> String.compare cc1 cc2 | c -> c)
  |> Array.of_list

(* A measured epoch ranks [countries] — the first dataset's, whatever
   countries this one covers.  One [counts_by_entity] per country gives
   its counts and, when it has a labelled site, its row: 𝒮 over
   [Dataset.distribution]'s counts, and [Centralization.hhi] without
   scoring twice. *)
let measured_table index countries ds layer =
  let rows = Array.make (Tbl.length index) absent in
  let counts = Array.make (Tbl.length index) unmeasured in
  List.iter
    (fun cc ->
      let i = Tbl.find index cc in
      let providers = D.counts_by_entity ds layer cc in
      counts.(i) <- { providers = Array.of_list providers; sites = D.site_count ds cc };
      if providers <> [] then begin
        let dist = Webdep_emd.Dist.of_counts (Array.of_list (List.map snd providers)) in
        let s = Webdep_emd.Centralization.score dist in
        rows.(i) <-
          {
            s;
            hhi = s +. (1.0 /. Webdep_emd.Dist.total dist);
            insularity = Webdep.Regionalization.insularity ds layer cc;
          }
      end)
    (D.countries ds);
  { rows; ranking = rank index rows countries; counts = Some counts }

(* A scores-only epoch ranks every country it has a row for; a country
   listed twice keeps its last row. *)
let scored_table index per_country =
  let rows = Array.make (Tbl.length index) absent in
  List.iter (fun (cc, row) -> rows.(Tbl.find index cc) <- row) per_country;
  let ccs = List.sort_uniq String.compare (List.map fst per_country) in
  { rows; ranking = rank index rows ccs; counts = None }

let make ?fingerprint:_ ?(scored = []) datasets =
  let countries = match datasets with (_, ds) :: _ -> D.countries ds | [] -> [] in
  let names = List.map fst datasets @ List.map fst scored in
  let index = Tbl.create 256 in
  let add_country cc = if not (Tbl.mem index cc) then Tbl.add index cc (Tbl.length index) in
  List.iter (fun (_, ds) -> List.iter add_country (D.countries ds)) datasets;
  List.iter
    (fun (_, by_layer) ->
      List.iter (fun (_, per_country) -> List.iter (fun (cc, _) -> add_country cc) per_country)
        by_layer)
    scored;
  let epochs = Tbl.create 64 in
  (* A repeated name keeps the epoch loaded first; so does a repeated
     layer within a scores-only epoch. *)
  let add name slots = if not (Tbl.mem epochs name) then Tbl.add epochs name (slots ()) in
  let n_layers = List.length layers in
  List.iter
    (fun (name, ds) ->
      add name (fun () ->
          Array.init n_layers (fun i -> Some (measured_table index countries ds (P.layer_of_code i)))))
    datasets;
  List.iter
    (fun (name, by_layer) ->
      add name (fun () ->
          let slots = Array.make n_layers None in
          List.iter
            (fun (l, per_country) ->
              let i = P.layer_code l in
              if Option.is_none slots.(i) then slots.(i) <- Some (scored_table index per_country))
            by_layer;
          slots))
    scored;
  { countries; names; loaded = String.concat ", " names; epochs; index }

let countries t = t.countries
let epochs t = t.names

(* A no-op: [make] already builds every table.  Kept for callers written
   when the first queries had to fault scores in. *)
let warm (_ : t) = ()

(* The first [k] entries of [a], as a list. *)
let prefix a k =
  let rec go i acc = if i < 0 then acc else go (i - 1) (a.(i) :: acc) in
  go (min k (Array.length a) - 1) []

(* An unknown epoch enumerates what the daemon actually has loaded
   instead of a bare failure. *)
let unknown_epoch t name =
  P.Error (Printf.sprintf "epoch %s not loaded (loaded: %s)" name t.loaded)

let table t epoch layer =
  match Tbl.find_opt t.epochs epoch with
  | None -> Result.Error (unknown_epoch t epoch)
  | Some slots -> (
      match slots.(P.layer_code layer) with
      | Some tb -> Ok tb
      | None -> Result.Error (P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch)))

let row t epoch layer country =
  match table t epoch layer with
  | Result.Error _ as e -> e
  | Ok tb -> (
      match Tbl.find_opt t.index country with
      | Some i when tb.rows.(i) != absent -> Ok tb.rows.(i)
      | _ -> Result.Error (P.Error (Printf.sprintf "no data for country %s" country)))

(* Top-k provider shares need a measured epoch's counts.  Any other
   epoch is scores-only, whichever layer is asked for. *)
let shares_response t epoch layer country k =
  match Tbl.find_opt t.epochs epoch with
  | None -> unknown_epoch t epoch
  | Some slots -> (
      match slots.(P.layer_code layer) with
      | Some { counts = Some counts; _ } -> (
          match Tbl.find_opt t.index country with
          | Some i when counts.(i) != unmeasured ->
              let { providers; sites } = counts.(i) in
              let total = float_of_int sites in
              P.Shares
                (List.map
                   (fun ((e : D.entity), n) ->
                     { P.provider = e.D.name; home = e.D.country; share = float_of_int n /. total })
                   (prefix providers k))
          | _ -> P.Error (Printf.sprintf "no data for country %s" country))
      | Some { counts = None; _ } | None ->
          P.Error
            (Printf.sprintf
               "epoch %s is scores-only (churn-log replay); this query needs a warmed \
                epoch"
               epoch))

let answer t = function
  | P.Ping -> P.Pong
  | P.Shutdown -> P.Bye
  | P.Epochs -> P.Epoch_list t.names
  | P.Score { epoch; layer; country } -> (
      match row t epoch layer country with
      | Ok { s; hhi; insularity } -> P.Scores { s; hhi; insularity }
      | Result.Error e -> e)
  | P.Top_shares { epoch; layer; country; k } -> shares_response t epoch layer country k
  | P.Ranking { epoch; layer; k } -> (
      match table t epoch layer with
      | Ok tb -> P.Ranks (prefix tb.ranking k)
      | Result.Error e -> e)
  | P.Delta { layer; country; old_epoch; new_epoch } -> (
      match (row t old_epoch layer country, row t new_epoch layer country) with
      | Ok o, Ok n ->
          P.Deltas { old_epoch; new_epoch; old_s = o.s; new_s = n.s; delta = n.s -. o.s }
      | Result.Error e, _ | _, Result.Error e -> e)
