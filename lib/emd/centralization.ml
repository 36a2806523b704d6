let default_c = 10_000

let score dist =
  let c = Dist.total dist in
  let acc = ref 0.0 in
  Array.iter (fun m -> acc := !acc +. ((m /. c) ** 2.0)) (Dist.masses dist);
  !acc -. (1.0 /. c)

let score_of_counts counts = score (Dist.of_counts counts)

let score_of_shares_c ~c shares =
  let sum = Array.fold_left ( +. ) 0.0 shares in
  if not (Float.abs (sum -. 1.0) <= 1e-6) (* NaN fails it too *) then
    invalid_arg "Centralization.score_of_shares: shares must sum to 1";
  let acc = ref 0.0 in
  Array.iter (fun s -> acc := !acc +. (s *. s)) shares;
  !acc -. (1.0 /. float_of_int c)

let score_of_shares shares = score_of_shares_c ~c:default_c shares

let hhi dist =
  let c = Dist.total dist in
  score dist +. (1.0 /. c)

let upper_bound ~c =
  if c <= 0 then invalid_arg "Centralization.upper_bound: c must be positive";
  1.0 -. (1.0 /. float_of_int c)

let via_transport ?(fast = true) dist =
  let supply = Dist.masses dist in
  let c = Dist.total dist in
  if fast then begin
    (* The ground distance (a_i − 1)/C does not depend on the demand
       bucket j, so every feasible flow has the same work: each unit of
       supply i pays (a_i − 1)/C, giving EMD = Σ a_i·(a_i − 1) / C²
       without building the flow network at all. *)
    let acc = ref 0.0 in
    Array.iter (fun a -> acc := !acc +. (a *. (a -. 1.0))) supply;
    !acc /. (c *. c)
  end
  else begin
    let c_int = int_of_float (Float.round c) in
    let demand = Array.make c_int 1.0 in
    (* Paper's ground distance: vertical height difference (a_i − r_j)/C
       with r_j = 1, independent of j. *)
    let cost i _j = (supply.(i) -. 1.0) /. c in
    Transport.emd ~supply ~demand ~cost
  end

type doj_band = Competitive | Moderately_concentrated | Highly_concentrated

let doj_band s =
  if s < 0.10 then Competitive
  else if s <= 0.18 then Moderately_concentrated
  else Highly_concentrated

let doj_band_to_string = function
  | Competitive -> "competitive"
  | Moderately_concentrated -> "moderately concentrated"
  | Highly_concentrated -> "highly concentrated"
