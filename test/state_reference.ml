(* Reference answers for the byte-identity test of [Webdep_serve.State]:
   the earlier, list-backed [State] that recomputed each answer per
   request — measured epochs read their live per-layer
   [Webdep_store.Incremental] tallies, scores-only epochs a per-layer
   country table, and every ranking re-sorted its countries.  Only the
   tests use it; it is kept verbatim so that [State]'s start-up tables
   can be checked against it reply for reply. *)

module D = Webdep.Dataset
module Inc = Webdep_store.Incremental
module P = Webdep_serve.Protocol

let layers = [ D.Hosting; D.Dns; D.Ca; D.Tld ]

type score_row = Webdep_serve.State.score_row = { s : float; hhi : float; insularity : float }

type epoch_state =
  | Warm of { inc_by_layer : (D.layer * Inc.t) list }
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
    List.map
      (fun (name, ds) ->
        (name, Warm { inc_by_layer = List.map (fun l -> (l, Inc.create ds l)) layers }))
      datasets
    @ List.map (fun (name, rows) -> (name, scored_of_rows rows)) scored
  in
  let countries =
    match datasets with (_, ds) :: _ -> D.countries ds | [] -> []
  in
  { countries; epochs }

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let unknown_epoch t name =
  P.Error
    (Printf.sprintf "epoch %s not loaded (loaded: %s)" name
       (String.concat ", " (List.map fst t.epochs)))

let epoch_state t name = List.assoc_opt name t.epochs

let with_inc t epoch layer f =
  match epoch_state t epoch with
  | None -> unknown_epoch t epoch
  | Some (Warm { inc_by_layer }) -> (
      match List.assoc_opt layer inc_by_layer with
      | Some inc -> f inc
      | None -> P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch))
  | Some (Scored _) ->
      P.Error
        (Printf.sprintf
           "epoch %s is scores-only (churn-log replay); this query needs a warmed \
            epoch"
           epoch)

let shares_response inc country k =
  match Inc.counts inc country with
  | counts ->
      let total = float_of_int (Inc.total inc country) in
      P.Shares
        (take k counts
        |> List.map (fun ((e : D.entity), n) ->
               { P.provider = e.D.name;
                 home = e.D.country;
                 share = float_of_int n /. total }))
  | exception Not_found -> P.Error (Printf.sprintf "no data for country %s" country)

let rank_sorted scored =
  List.sort
    (fun (cc1, s1) (cc2, s2) ->
      match Float.compare s2 s1 with 0 -> String.compare cc1 cc2 | c -> c)
    scored

let row_of t epoch layer country =
  match epoch_state t epoch with
  | None -> Result.Error (unknown_epoch t epoch)
  | Some (Warm { inc_by_layer }) -> (
      match List.assoc_opt layer inc_by_layer with
      | None -> Result.Error (P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch))
      | Some inc -> (
          match Inc.score inc country with
          | s ->
              Ok
                { s;
                  hhi = Inc.hhi inc country;
                  insularity = Inc.insularity inc country }
          | exception Not_found ->
              Result.Error (P.Error (Printf.sprintf "no data for country %s" country))))
  | Some (Scored { by_layer }) -> (
      match List.assoc_opt layer by_layer with
      | None -> Result.Error (P.Error (Printf.sprintf "layer not loaded for epoch %s" epoch))
      | Some tbl -> (
          match Hashtbl.find_opt tbl country with
          | Some row -> Ok row
          | None ->
              Result.Error (P.Error (Printf.sprintf "no data for country %s" country))))

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
        | Warm { inc_by_layer } -> (
            match List.assoc_opt layer inc_by_layer with
            | None -> None
            | Some inc ->
                Some
                  (List.filter_map
                     (fun cc ->
                       match Inc.score inc cc with
                       | s -> Some (cc, s)
                       | exception Not_found -> None)
                     t.countries))
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
  | P.Top_shares { epoch; layer; country; k } ->
      with_inc t epoch layer (fun inc -> shares_response inc country k)
  | P.Ranking { epoch; layer; k } -> ranking_response t epoch layer k
  | P.Delta { layer; country; old_epoch; new_epoch } ->
      delta_response t layer country ~old_epoch ~new_epoch
