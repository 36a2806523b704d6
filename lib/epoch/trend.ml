(* Trend extraction over a replayed epoch stream: per-country S series
   with a least-squares slope, and a per-transition rank-churn series —
   the [Longitudinal] primitives applied to the many-epoch case. *)

module L = Webdep.Longitudinal

type series = {
  country : string;
  scores : float array;  (* S at base..head; NaN where the country had no score *)
  slope : float;  (* least-squares S slope per epoch *)
}

type t = {
  epochs : int array;  (* epoch numbers, base..head *)
  series : series list;  (* baseline country order *)
  rank_churn : int array;  (* total |rank displacement| per transition *)
}

(* [per_epoch.(i)] is the (country, S) list at the i-th observed epoch. *)
let of_scores ~countries ~epochs per_epoch =
  let series =
    List.map
      (fun cc ->
        let scores =
          Array.map
            (fun scored ->
              match List.assoc_opt cc scored with Some s -> s | None -> Float.nan)
            per_epoch
        in
        { country = cc; scores; slope = L.slope scores })
      countries
  in
  let rank_churn =
    Array.init
      (max 0 (Array.length per_epoch - 1))
      (fun i -> L.rank_displacement per_epoch.(i) per_epoch.(i + 1))
  in
  { epochs; series; rank_churn }

(* Replay a log collecting the S series of one layer at every epoch. *)
let of_log (log : Log.t) layer =
  let acc = ref [] and epochs = ref [] in
  let t =
    Replay.replay
      ~observe:(fun r ->
        acc := Replay.scores r layer :: !acc;
        epochs := Replay.epoch r :: !epochs)
      log
  in
  ( t,
    of_scores
      ~countries:(Replay.countries t)
      ~epochs:(Array.of_list (List.rev !epochs))
      (Array.of_list (List.rev !acc)) )

let render t =
  let b = Buffer.create 1024 in
  let n = Array.length t.epochs in
  Buffer.add_string b
    (Printf.sprintf "%-4s %10s %10s %12s\n" "cc" "S(first)" "S(last)" "slope/epoch");
  List.iter
    (fun s ->
      if n > 0 then
        Buffer.add_string b
          (Printf.sprintf "%-4s %10.6f %10.6f %+12.6f\n" s.country s.scores.(0)
             s.scores.(n - 1) s.slope))
    t.series;
  if Array.length t.rank_churn > 0 then begin
    let total = Array.fold_left ( + ) 0 t.rank_churn in
    Buffer.add_string b
      (Printf.sprintf "rank churn: total %d over %d transitions, per-epoch [%s]\n"
         total
         (Array.length t.rank_churn)
         (String.concat "," (Array.to_list (Array.map string_of_int t.rank_churn))))
  end;
  Buffer.contents b
