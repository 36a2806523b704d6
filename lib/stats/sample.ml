let zipf_weights ~s n =
  if n <= 0 then invalid_arg "Sample.zipf_weights: n must be positive";
  Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s)

let zipf_probabilities ~s n =
  let w = zipf_weights ~s n in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

type categorical = { cumulative : float array }

let categorical weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sample.categorical: empty weights";
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    if weights.(i) < 0.0 then invalid_arg "Sample.categorical: negative weight";
    acc := !acc +. weights.(i);
    cumulative.(i) <- !acc
  done;
  if !acc <= 0.0 then invalid_arg "Sample.categorical: all weights zero";
  { cumulative }

(* Smallest index whose cumulative weight exceeds [u]. *)
let search cumulative u =
  let n = Array.length cumulative in
  let rec loop lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cumulative.(mid) > u then loop lo mid else loop (mid + 1) hi
  in
  loop 0 (n - 1)

let draw t rng =
  let total = t.cumulative.(Array.length t.cumulative - 1) in
  search t.cumulative (Rng.float rng total)

let zipf rng ~s n =
  let sampler = categorical (zipf_weights ~s n) in
  draw sampler rng

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose rng a =
  if Array.length a = 0 then invalid_arg "Sample.choose: empty array";
  a.(Rng.int rng (Array.length a))

let multinomial rng ~trials probs =
  let sampler = categorical probs in
  let counts = Array.make (Array.length probs) 0 in
  for _ = 1 to trials do
    let i = draw sampler rng in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let normal rng ~mean ~stddev =
  if stddev < 0.0 then invalid_arg "Sample.normal: negative stddev";
  (* Box–Muller; avoid log 0 by nudging u1 away from zero. *)
  let u1 = Float.max 1e-12 (Rng.float rng 1.0) in
  let u2 = Rng.float rng 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let log_normal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

let round_shares ~total shares =
  let n = Array.length shares in
  if n = 0 then [||]
  else begin
    let sum = Array.fold_left ( +. ) 0.0 shares in
    if sum <= 0.0 then Array.make n 0 |> fun a -> (a.(0) <- total; a)
    else begin
      let exact = Array.map (fun s -> float_of_int total *. s /. sum) shares in
      let floors = Array.map (fun x -> int_of_float (Float.floor x)) exact in
      let assigned = Array.fold_left ( + ) 0 floors in
      let remainder = total - assigned in
      (* Hand the leftover units to the largest fractional parts; ties break
         toward lower index for determinism. *)
      let frac = Array.mapi (fun i x -> x -. Float.of_int floors.(i)) exact in
      let order = Array.init n (fun i -> i) in
      Array.sort
        (fun i j -> match Float.compare frac.(j) frac.(i) with 0 -> Int.compare i j | c -> c)
        order;
      for k = 0 to remainder - 1 do
        let i = order.(k mod n) in
        floors.(i) <- floors.(i) + 1
      done;
      floors
    end
  end
