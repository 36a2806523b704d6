(* Daemon state: one immutable answer table per (epoch, layer), built
   once by [make] and reached through a hash table keyed by epoch name.
   A table holds every country's S/HHI/insularity row and the full
   cross-country ranking, pre-sorted; the tables of a measured
   (dataset-backed) epoch also keep the layer's
   [Webdep_store.Incremental], whose provider tallies the top-k share
   query reads.  Churn-log epochs arrive as score rows only.  Nothing an
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
module Inc = Webdep_store.Incremental
module P = Protocol
module Tbl = Hashtbl.Make (String)

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

type score_row = { s : float; hhi : float; insularity : float }

(* A table's row for a country it has no score for; only ever compared
   with [==]. *)
let absent = { s = Float.nan; hhi = Float.nan; insularity = Float.nan }

type table = {
  rows : score_row array;  (* by country index; [absent] where there is no score *)
  ranking : (string * float) array;  (* S descending, then country ascending *)
  inc : Inc.t option;  (* measured epochs only: the tallies top-k reads *)
}

(* One slot per layer, indexed by [Protocol.layer_code]; [None] is a
   layer the epoch did not load.  A measured epoch loads every layer. *)
type epoch = table option array

type t = {
  fingerprint : string;  (* world/store fingerprint, written into snapshots *)
  countries : string list;  (* the first dataset's countries, in its order *)
  datasets : (string * D.t) list;  (* measured inputs, kept for snapshots *)
  names : string list;  (* every loaded epoch in load order, repeats included *)
  loaded : string;  (* [names] joined, for the unknown-epoch error *)
  epochs : epoch Tbl.t;  (* the first-loaded epoch of each name *)
  index : int Tbl.t;  (* country -> its cell in every table's [rows] *)
}

(* The scores-only epochs of a churn log, one per committed epoch and
   named "e<k>": every country's S/HHI/insularity per layer, read off
   [Replay] as it folds the log (countries without a labelled site are
   left out). *)
let scored_of_log log =
  let module R = Webdep_epoch.Replay in
  let acc = ref [] in
  let observe r =
    let rows l =
      List.filter_map
        (fun cc ->
          match R.score r l cc with
          | s -> Some (cc, { s; hhi = R.hhi r l cc; insularity = R.insularity r l cc })
          | exception Not_found -> None)
        (R.countries r)
    in
    acc := (Printf.sprintf "e%d" (R.epoch r), List.map (fun l -> (l, rows l)) layers) :: !acc
  in
  ignore (R.replay ~observe log);
  List.rev !acc

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
   countries this one covers. *)
let measured_table index countries ds layer =
  let inc = Inc.create ds layer in
  let rows = Array.make (Tbl.length index) absent in
  List.iter
    (fun cc ->
      match Inc.score inc cc with
      | s ->
          rows.(Tbl.find index cc) <-
            { s; hhi = Inc.hhi inc cc; insularity = Inc.insularity inc cc }
      | exception Not_found -> ())
    (Inc.countries inc);
  { rows; ranking = rank index rows countries; inc = Some inc }

(* A scores-only epoch ranks every country it has a row for; a country
   listed twice keeps its last row. *)
let scored_table index per_country =
  let rows = Array.make (Tbl.length index) absent in
  List.iter (fun (cc, row) -> rows.(Tbl.find index cc) <- row) per_country;
  let ccs = List.sort_uniq String.compare (List.map fst per_country) in
  { rows; ranking = rank index rows ccs; inc = None }

let make ~fingerprint ?(scored = []) datasets =
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
  { fingerprint; countries; datasets; names; loaded = String.concat ", " names; epochs; index }

let fingerprint t = t.fingerprint
let countries t = t.countries
let datasets t = t.datasets
let epochs t = t.names

(* A no-op: [make] already builds every table.  Kept for callers written
   when the first queries had to fault scores in. *)
let warm (_ : t) = ()

(* The first [k] entries of [a], as a list. *)
let prefix a k =
  let rec go i acc = if i < 0 then acc else go (i - 1) (a.(i) :: acc) in
  go (min k (Array.length a) - 1) []

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

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

(* Top-k provider shares need a measured epoch's tallies.  Any other
   epoch is scores-only, whichever layer is asked for. *)
let shares_response t epoch layer country k =
  match Tbl.find_opt t.epochs epoch with
  | None -> unknown_epoch t epoch
  | Some slots -> (
      match slots.(P.layer_code layer) with
      | Some { inc = Some inc; _ } -> (
          match Inc.counts inc country with
          | counts ->
              let total = float_of_int (Inc.total inc country) in
              P.Shares
                (take k counts
                |> List.map (fun ((e : D.entity), n) ->
                       { P.provider = e.D.name;
                         home = e.D.country;
                         share = float_of_int n /. total }))
          | exception Not_found -> P.Error (Printf.sprintf "no data for country %s" country))
      | Some { inc = None; _ } | None ->
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
