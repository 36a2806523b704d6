type result = { rho : float; p_value : float; n : int }

let check xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Correlation: length mismatch";
  if n < 3 then invalid_arg "Correlation: need at least 3 observations";
  n

let pearson xs ys =
  let n = check xs ys in
  let nf = float_of_int n in
  let mx = Descriptive.mean xs and my = Descriptive.mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 || !syy = 0.0 then invalid_arg "Correlation.pearson: constant input";
  let rho = !sxy /. sqrt (!sxx *. !syy) in
  (* Clamp against floating point drift before the t transform. *)
  let rho = Float.max (-1.0) (Float.min 1.0 rho) in
  let p_value =
    if Float.abs rho >= 1.0 then 0.0
    else
      let df = nf -. 2.0 in
      let t = rho *. sqrt (df /. (1.0 -. (rho *. rho))) in
      Special.student_t_sf ~df (Float.abs t)
  in
  { rho; p_value; n }

(* Mid-ranks: ties receive the average of the ranks they span. *)
let ranks xs =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare xs.(i) xs.(j)) order;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do incr j done;
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  let _n = check xs ys in
  (* With the lengths checked, constant ranks are all [pearson] can
     refuse. *)
  try pearson (ranks xs) (ranks ys)
  with Invalid_argument _ -> invalid_arg "Correlation.spearman: constant input"

type strength = Poor | Fair | Moderate | Strong

let strength rho =
  let a = Float.abs rho in
  if a < 0.30 then Poor else if a < 0.60 then Fair else if a < 0.80 then Moderate else Strong

let strength_to_string = function
  | Poor -> "poor"
  | Fair -> "fair"
  | Moderate -> "moderate"
  | Strong -> "strong"

let permutation_p ?(iterations = 1000) rng xs ys =
  let observed = Float.abs (pearson xs ys).rho in
  let shuffled = Array.copy ys in
  let hits = ref 0 in
  for _ = 1 to iterations do
    Sample.shuffle rng shuffled;
    match pearson xs shuffled with
    | r -> if Float.abs r.rho >= observed -. 1e-12 then incr hits
    | exception Invalid_argument _ -> () (* constant after shuffle: impossible, xs fixed *)
  done;
  (* Add-one smoothing keeps the estimate away from an impossible 0. *)
  float_of_int (!hits + 1) /. float_of_int (iterations + 1)

let normal_quantile confidence =
  (* Two-sided quantiles for the common confidence levels; linear
     interpolation elsewhere (adequate for reporting intervals). *)
  let table = [ (0.80, 1.2816); (0.90, 1.6449); (0.95, 1.9600); (0.99, 2.5758) ] in
  match List.assoc_opt confidence table with
  | Some z -> z
  | None ->
      let rec interp = function
        | (c1, z1) :: ((c2, z2) :: _ as rest) ->
            if confidence <= c1 then z1
            else if confidence < c2 then
              z1 +. ((z2 -. z1) *. (confidence -. c1) /. (c2 -. c1))
            else interp rest
        | [ (_, z) ] -> z
        | [] -> 1.96
      in
      interp table

let fisher_interval ?(confidence = 0.95) r =
  if r.n < 4 then invalid_arg "Correlation.fisher_interval: need n >= 4";
  let rho = Float.max (-0.999999) (Float.min 0.999999 r.rho) in
  let z = 0.5 *. log ((1.0 +. rho) /. (1.0 -. rho)) in
  let se = 1.0 /. sqrt (float_of_int (r.n - 3)) in
  let q = normal_quantile confidence in
  let back z = (exp (2.0 *. z) -. 1.0) /. (exp (2.0 *. z) +. 1.0) in
  (back (z -. (q *. se)), back (z +. (q *. se)))
