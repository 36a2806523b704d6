(* Reference answers for the equivalence test of
   [Webdep_worldgen.Calibrate]: the earlier calibrator, which restored
   the provider count by re-sorting the bucket list after every split
   and fine-tuned by rebuilding lists and arrays on every move.  Only
   the tests use it; it is kept verbatim so that [Calibrate.counts] can
   be checked against it array for array and bit for bit. *)

type result = { counts : int array; achieved : float }

let score_of_counts counts =
  let c = float_of_int (Array.fold_left ( + ) 0 counts) in
  let acc = ref 0.0 in
  Array.iter (fun k -> acc := !acc +. ((float_of_int k /. c) ** 2.0)) counts;
  !acc -. (1.0 /. c)

(* The sum of squared [Sample.zipf_probabilities ~s n] for
   n = [Array.length w], bit for bit — the same divisions and additions
   in the same order — with the weights written into [w] instead of two
   fresh arrays per call.  The HHI bisection calls it 60 times per mix
   on tails of up to a few thousand buckets, and every world calibrates
   750 mixes when it is created. *)
let zipf_sum_sq w s =
  let total = ref 0.0 in
  for i = 0 to Array.length w - 1 do
    let x = 1.0 /. Float.pow (float_of_int (i + 1)) s in
    w.(i) <- x;
    total := !total +. x
  done;
  let acc = ref 0.0 in
  Array.iter
    (fun x ->
      let z = x /. !total in
      acc := !acc +. (z *. z))
    w;
  !acc

(* Bisect alpha in [0, hi] for a monotone-increasing hhi function. *)
let bisect_alpha f target =
  let lo = ref 0.0 and hi = ref 8.0 in
  if f !hi < target then !hi
  else begin
    for _ = 1 to 60 do
      let mid = (!lo +. !hi) /. 2.0 in
      if f mid < target then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  end

(* Solve p^2 + (1-p)^2 * z = h for p in (0,1), taking the larger root
   (dominant top provider). *)
let solve_top_share ~z ~h =
  (* (1+z) p^2 - 2z p + (z - h) = 0 *)
  let a = 1.0 +. z and b = -2.0 *. z and cst = z -. h in
  let disc = (b *. b) -. (4.0 *. a *. cst) in
  if disc < 0.0 then None
  else
    let p = (-.b +. sqrt disc) /. (2.0 *. a) in
    if p > 0.0 && p < 1.0 then Some p else None

(* Shares with a fixed head (the top bucket, optionally a pinned second,
   plus any caller-pinned exact-share buckets) and a Zipf tail whose
   exponent is bisected to land the HHI target.  The head is clamped —
   and if necessary the pinned buckets proportionally scaled — so the
   fixed part never overshoots the HHI budget; if even a uniform tail
   overshoots, the tail is widened past [n_providers]. *)
let shares ~top_share ~second_share ~pinned ~n_providers ~hhi_target =
  let budget = 0.995 *. hhi_target in
  let pinned_hhi ps = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 ps in
  (* Scale pinned buckets down if they alone blow the budget. *)
  let pinned =
    let h = pinned_hhi pinned in
    if h > 0.6 *. budget then
      let scale = sqrt (0.6 *. budget /. h) in
      List.map (fun x -> x *. scale) pinned
    else pinned
  in
  let head =
    match (top_share, second_share) with
    | None, _ -> []
    | Some p, None -> [ Float.min p (sqrt (Float.max 1e-6 (budget -. pinned_hhi pinned))) ]
    | Some p, Some q ->
        let p = Float.min p (sqrt (Float.max 1e-6 (budget -. pinned_hhi pinned))) in
        let rest_budget = budget -. (p *. p) -. pinned_hhi pinned in
        let q = if rest_budget <= 0.0 then 0.0 else Float.min q (sqrt rest_budget) in
        if q > 0.0 then [ p; q ] else [ p ]
  in
  let fixed = head @ pinned in
  let fixed_mass = List.fold_left ( +. ) 0.0 fixed in
  let fixed_hhi = pinned_hhi fixed in
  let tail_n = n_providers - List.length fixed in
  let rest = Float.max 0.0 (1.0 -. fixed_mass) in
  if tail_n <= 0 || rest <= 0.0 then Array.of_list fixed
  else begin
    (* Widen the tail when a uniform spread over tail_n would still
       overshoot the remaining HHI budget. *)
    let tail_budget = hhi_target -. fixed_hhi in
    let tail_n =
      if tail_budget > 0.0 then
        let needed = int_of_float (Float.ceil (rest *. rest /. tail_budget)) in
        Stdlib.max tail_n needed
      else tail_n
    in
    let zipf alpha = Webdep_stats.Sample.zipf_probabilities ~s:alpha tail_n in
    let w = Array.make tail_n 0.0 in
    let hhi alpha = fixed_hhi +. (rest *. rest *. zipf_sum_sq w alpha) in
    if hhi 0.0 > hhi_target && head <> [] then begin
      (* Even a uniform tail overshoots: shrink the top bucket. *)
      match
        solve_top_share ~z:(1.0 /. float_of_int tail_n)
          ~h:(hhi_target -. fixed_hhi +. (List.hd head ** 2.0))
      with
      | Some p' ->
          let fixed = p' :: (List.tl head @ pinned) in
          let rest = Float.max 0.0 (1.0 -. List.fold_left ( +. ) 0.0 fixed) in
          let z = zipf 0.0 in
          Array.append (Array.of_list fixed) (Array.map (fun zi -> rest *. zi) z)
      | None ->
          let z = zipf 0.0 in
          Array.append (Array.of_list fixed) (Array.map (fun zi -> rest *. zi) z)
    end
    else begin
      let alpha = bisect_alpha hhi hhi_target in
      let z = zipf alpha in
      Array.append (Array.of_list fixed) (Array.map (fun zi -> rest *. zi) z)
    end
  end

(* One unit moved from bucket i to bucket j changes HHI by
   2 (c_j - c_i + 1) / c^2; repeatedly pick the move whose step is closest
   to the remaining error. *)
let fine_tune ~c ~target ~tolerance counts =
  let cf = float_of_int c in
  let buckets = ref (Array.to_list counts) in
  let score () = score_of_counts (Array.of_list !buckets) in
  let s = ref (score ()) in
  let iterations = ref 0 in
  let improved = ref true in
  while Float.abs (target -. !s) > tolerance && !iterations < 2000 && !improved do
    incr iterations;
    let err = target -. !s in
    let delta = err *. cf *. cf /. 2.0 in
    let arr = Array.of_list !buckets in
    let n = Array.length arr in
    (* Donor: smallest bucket when raising S, largest when lowering. *)
    let argbest cmp =
      let best = ref 0 in
      for i = 1 to n - 1 do
        if cmp arr.(i) arr.(!best) then best := i
      done;
      !best
    in
    let donor = if delta >= 0.0 then argbest ( < ) else argbest ( > ) in
    let want = float_of_int (arr.(donor) - 1) +. delta in
    (* Receiver: existing bucket closest to [want]; a brand-new empty
       bucket (value 0) is also a candidate when shrinking. *)
    let best_j = ref (-1) and best_gap = ref infinity in
    for j = 0 to n - 1 do
      if j <> donor then begin
        let gap = Float.abs (float_of_int arr.(j) -. want) in
        if gap < !best_gap then begin
          best_gap := gap;
          best_j := j
        end
      end
    done;
    let use_new_bucket = delta < 0.0 && Float.abs (0.0 -. want) < !best_gap in
    let next =
      if use_new_bucket then begin
        let a = Array.copy arr in
        a.(donor) <- a.(donor) - 1;
        Array.append a [| 1 |]
      end
      else begin
        let a = Array.copy arr in
        a.(donor) <- a.(donor) - 1;
        a.(!best_j) <- a.(!best_j) + 1;
        a
      end
    in
    let next = Array.of_list (List.filter (fun k -> k > 0) (Array.to_list next)) in
    let s' = score_of_counts next in
    if Float.abs (target -. s') < Float.abs err then begin
      buckets := Array.to_list next;
      s := s'
    end
    else improved := false
  done;
  let final = Array.of_list !buckets in
  Array.sort (fun a b -> compare b a) final;
  final

let counts ?(tolerance = 5e-5) ?top_share ?second_share ?(pinned = []) ~c ~n_providers
    ~target () =
  if c <= 0 then invalid_arg "Calibrate.counts: c must be positive";
  if n_providers <= 1 || n_providers > c then
    invalid_arg "Calibrate.counts: n_providers outside (1, c]";
  let cf = float_of_int c in
  let floor_s = (1.0 /. float_of_int n_providers) -. (1.0 /. cf) in
  let ceil_s = 1.0 -. (1.0 /. cf) in
  if target <= floor_s || target >= ceil_s then
    invalid_arg
      (Printf.sprintf "Calibrate.counts: target %.4f outside attainable (%.4f, %.4f)" target
         floor_s ceil_s);
  let hhi_target = target +. (1.0 /. cf) in
  List.iter
    (fun p ->
      if p < 0.0 || p >= 1.0 then invalid_arg "Calibrate.counts: pinned share outside [0,1)")
    pinned;
  let share_vec = shares ~top_share ~second_share ~pinned ~n_providers ~hhi_target in
  let rounded = Webdep_stats.Sample.round_shares ~total:c share_vec in
  let positive = Array.of_list (List.filter (fun k -> k > 0) (Array.to_list rounded)) in
  (* Rounding can zero out the far tail; restore the requested provider
     count by splitting the smallest >=2 bucket into (k-1, 1) — each split
     changes HHI by only 2(1-k)/c^2, so the score barely moves. *)
  let positive =
    let buckets = ref (List.sort compare (Array.to_list positive)) in
    let length = ref (List.length !buckets) in
    let exhausted = ref false in
    while !length < n_providers && not !exhausted do
      match List.find_opt (fun k -> k >= 2) !buckets with
      | None -> exhausted := true
      | Some k ->
          let removed = ref false in
          buckets :=
            1 :: (k - 1)
            :: List.filter
                 (fun x ->
                   if (not !removed) && x = k then begin
                     removed := true;
                     false
                   end
                   else true)
                 !buckets;
          buckets := List.filter (fun x -> x > 0) !buckets;
          buckets := List.sort compare !buckets;
          incr length
    done;
    Array.of_list (List.rev !buckets)
  in
  let counts = fine_tune ~c ~target ~tolerance positive in
  { counts; achieved = score_of_counts counts }
