type country_delta = {
  country : string;
  old_score : float;
  new_score : float;
  delta : float;
  jaccard : float;
  top_entity_delta : (string * float) option;
}

type comparison = {
  deltas : country_delta list;
  rho : Webdep_stats.Correlation.result;
  mean_jaccard : float;
  focus_mean_delta : float option;
}

let domains cd = List.map (fun s -> s.Dataset.domain) cd.Dataset.sites

let compare ?focus ~old_ds ~new_ds layer =
  let common =
    List.filter (fun cc -> Dataset.country new_ds cc <> None) (Dataset.countries old_ds)
  in
  if List.length common < 3 then invalid_arg "Longitudinal.compare: too few common countries";
  let deltas =
    List.map
      (fun cc ->
        let old_score = Metrics.centralization old_ds layer cc in
        let new_score = Metrics.centralization new_ds layer cc in
        let jaccard =
          Webdep_stats.Similarity.jaccard_strings
            (domains (Dataset.country_exn old_ds cc))
            (domains (Dataset.country_exn new_ds cc))
        in
        let top_entity_delta =
          Option.map
            (fun name ->
              ( name,
                Dataset.entity_share new_ds layer cc ~name
                -. Dataset.entity_share old_ds layer cc ~name ))
            focus
        in
        { country = cc; old_score; new_score; delta = new_score -. old_score; jaccard;
          top_entity_delta })
      common
  in
  let olds = Array.of_list (List.map (fun d -> d.old_score) deltas) in
  let news = Array.of_list (List.map (fun d -> d.new_score) deltas) in
  let rho = Webdep_stats.Correlation.pearson olds news in
  let mean_jaccard =
    Webdep_stats.Descriptive.mean
      (Array.of_list (List.map (fun d -> d.jaccard) deltas))
  in
  let focus_mean_delta =
    match focus with
    | None -> None
    | Some _ ->
        Some
          (Webdep_stats.Descriptive.mean
             (Array.of_list
                (List.filter_map (fun d -> Option.map snd d.top_entity_delta) deltas)))
  in
  let deltas =
    List.sort (fun a b -> Stdlib.compare (Float.abs b.delta) (Float.abs a.delta)) deltas
  in
  { deltas; rho; mean_jaccard; focus_mean_delta }

let largest_increase cmp =
  List.fold_left
    (fun best d -> if d.delta > best.delta then d else best)
    (List.hd cmp.deltas) cmp.deltas

(* --- trend primitives over many-epoch series ---------------------------- *)

(* Least-squares slope of [ys] against epoch index 0..n-1, skipping NaN
   entries (countries absent from some epochs).  With fewer than two
   finite points there is no trend: 0. *)
let slope ys =
  let n = Array.length ys in
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let y = ys.(i) in
    if not (Float.is_nan y) then begin
      let x = float_of_int i in
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y);
      incr m
    end
  done;
  if !m < 2 then 0.0
  else
    let mf = float_of_int !m in
    let denom = (mf *. !sxx) -. (!sx *. !sx) in
    if denom = 0.0 then 0.0 else ((mf *. !sxy) -. (!sx *. !sy)) /. denom

(* The canonical ranking order shared with the serve plane: score
   descending, ties by country code. *)
let rank_order scored =
  List.sort
    (fun (cc1, s1) (cc2, s2) ->
      match Float.compare s2 s1 with 0 -> String.compare cc1 cc2 | c -> c)
    scored

let rank_displacement old_scored new_scored =
  let index scored =
    let tbl = Hashtbl.create 64 in
    List.iteri (fun i (cc, _) -> Hashtbl.replace tbl cc i) (rank_order scored);
    tbl
  in
  let old_ranks = index old_scored and new_ranks = index new_scored in
  Hashtbl.fold
    (fun cc old_rank acc ->
      match Hashtbl.find_opt new_ranks cc with
      | Some new_rank -> acc + abs (new_rank - old_rank)
      | None -> acc)
    old_ranks 0
