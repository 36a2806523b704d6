(* Reference answers for the byte-identity test of [Webdep_serve.State]:
   a list-backed [State] that recomputes each answer per request.  A
   measured epoch counts its dataset's decoded site records afresh for
   every request, with its own hash table, sort and 𝒮 arithmetic;
   scores-only epochs keep a per-layer country table, and every ranking
   re-sorts its countries.  [State] builds its tables on the dataset's
   id columns ([Dataset.counts_by_entity], [Dist], [Centralization],
   [Regionalization]), none of which this file calls, so the test
   compares two independent paths reply for reply. *)

module D = Webdep.Dataset
module P = Webdep_serve.Protocol

type score_row = Webdep_serve.State.score_row = { s : float; hhi : float; insularity : float }

type epoch_state =
  | Measured of D.t
  | Scored of { by_layer : (D.layer * (string, score_row) Hashtbl.t) list }

type t = {
  countries : string list;
  epochs : (string * epoch_state) list;
}

let scored_of_rows rows =
  Scored
    {
      by_layer =
        List.map
          (fun (layer, per_country) ->
            let tbl = Hashtbl.create 64 in
            List.iter (fun (cc, row) -> Hashtbl.replace tbl cc row) per_country;
            (layer, tbl))
          rows;
    }

let make ?(scored = []) datasets =
  let epochs =
    List.map (fun (name, ds) -> (name, Measured ds)) datasets
    @ List.map (fun (name, rows) -> (name, scored_of_rows rows)) scored
  in
  let countries =
    match datasets with (_, ds) :: _ -> D.countries ds | [] -> []
  in
  { countries; epochs }

(* A measured country's labelled sites counted per (name, home),
   count-descending with ties by name then home, and its site total;
   [None] when the dataset lacks the country. *)
let tally ds layer cc =
  match D.country ds cc with
  | None -> None
  | Some cd ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (site : D.site) ->
          let label =
            match layer with
            | D.Hosting -> site.D.hosting
            | D.Dns -> site.D.dns
            | D.Ca -> site.D.ca
            | D.Tld -> Some site.D.tld
          in
          match label with
          | Some e ->
              let key = (e.D.name, e.D.country) in
              Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
          | None -> ())
        cd.D.sites;
      let counts =
        Hashtbl.fold (fun (name, home) k acc -> ((name, home), k) :: acc) tbl []
        |> List.sort (fun ((n1, h1), k1) ((n2, h2), k2) -> compare (k2, n1, h1) (k1, n2, h2))
      in
      Some (counts, List.length cd.D.sites)

(* 𝒮 = Σ (k/c)² − 1/c over the count-descending list, HHI = 𝒮 + 1/c,
   insularity = home-labelled sites over all sites; [None] without a
   labelled site. *)
let row_of_tally cc (counts, total) =
  if counts = [] then None
  else
    let c = float_of_int (List.fold_left (fun acc (_, k) -> acc + k) 0 counts) in
    let sum = List.fold_left (fun acc (_, k) -> acc +. ((float_of_int k /. c) ** 2.0)) 0.0 counts in
    let s = sum -. (1.0 /. c) in
    let home = List.fold_left (fun acc ((_, h), k) -> if h = cc then acc + k else acc) 0 counts in
    Some { s; hhi = s +. (1.0 /. c); insularity = float_of_int home /. float_of_int total }

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let unknown_epoch t name =
  P.Error
    (Printf.sprintf "epoch %s not loaded (loaded: %s)" name
       (String.concat ", " (List.map fst t.epochs)))

let no_data country = P.Error (Printf.sprintf "no data for country %s" country)
let epoch_state t name = List.assoc_opt name t.epochs

let shares_response t epoch layer country k =
  match epoch_state t epoch with
  | None -> unknown_epoch t epoch
  | Some (Measured ds) -> (
      match tally ds layer country with
      | None -> no_data country
      | Some (counts, total) ->
          P.Shares
            (take k counts
            |> List.map (fun ((provider, home), n) ->
                   { P.provider; home; share = float_of_int n /. float_of_int total })))
  | Some (Scored _) ->
      P.Error
        (Printf.sprintf
           "epoch %s is scores-only (churn-log replay); this query needs a warmed \
            epoch"
           epoch)

let rank_sorted scored =
  List.sort
    (fun (cc1, s1) (cc2, s2) ->
      match Float.compare s2 s1 with 0 -> String.compare cc1 cc2 | c -> c)
    scored

let measured_row ds layer cc = Option.bind (tally ds layer cc) (row_of_tally cc)

let row_of t epoch layer country =
  match epoch_state t epoch with
  | None -> Result.Error (unknown_epoch t epoch)
  | Some (Measured ds) -> (
      match measured_row ds layer country with
      | Some row -> Ok row
      | None -> Result.Error (no_data country))
  | Some (Scored { by_layer }) -> (
      match List.assoc_opt layer by_layer with
      | None -> Result.Error (P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch))
      | Some tbl -> (
          match Hashtbl.find_opt tbl country with
          | Some row -> Ok row
          | None -> Result.Error (no_data country)))

let score_response_any t epoch layer country =
  match row_of t epoch layer country with
  | Ok { s; hhi; insularity } -> P.Scores { s; hhi; insularity }
  | Result.Error e -> e

let ranking_response t epoch layer k =
  match epoch_state t epoch with
  | None -> unknown_epoch t epoch
  | Some es -> (
      let scored =
        match es with
        | Measured ds ->
            Some
              (List.filter_map
                 (fun cc -> Option.map (fun r -> (cc, r.s)) (measured_row ds layer cc))
                 t.countries)
        | Scored { by_layer } -> (
            match List.assoc_opt layer by_layer with
            | None -> None
            | Some tbl ->
                let ccs =
                  List.sort_uniq String.compare
                    (Hashtbl.fold (fun cc _ acc -> cc :: acc) tbl [])
                in
                Some
                  (List.filter_map
                     (fun cc ->
                       Option.map (fun r -> (cc, r.s)) (Hashtbl.find_opt tbl cc))
                     ccs))
      in
      match scored with
      | None -> P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch)
      | Some scored -> P.Ranks (take k (rank_sorted scored)))

let delta_response t layer country ~old_epoch ~new_epoch =
  match (row_of t old_epoch layer country, row_of t new_epoch layer country) with
  | Ok o, Ok n ->
      P.Deltas
        { old_epoch; new_epoch; old_s = o.s; new_s = n.s; delta = n.s -. o.s }
  | Result.Error e, _ | _, Result.Error e -> e

let answer t = function
  | P.Ping -> P.Pong
  | P.Shutdown -> P.Bye
  | P.Epochs -> P.Epoch_list (List.map fst t.epochs)
  | P.Score { epoch; layer; country } -> score_response_any t epoch layer country
  | P.Top_shares { epoch; layer; country; k } -> shares_response t epoch layer country k
  | P.Ranking { epoch; layer; k } -> ranking_response t epoch layer k
  | P.Delta { layer; country; old_epoch; new_epoch } ->
      delta_response t layer country ~old_epoch ~new_epoch
