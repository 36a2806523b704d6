(* Process-global counters and histograms, safe under concurrent
   mutation from multiple domains.

   Creation goes through a name-keyed registry (memoized and
   mutex-guarded, so any module — or any worker domain — can reach a
   metric by name); the hot path — [incr] and [observe] — touches only
   [Atomic.t] fields, no table lookup and no lock.  Instrumented modules
   bind their metrics once at module initialization:

     let m_queries = Webdep_obs.Metrics.counter "dns.iterative.queries"

   Float fields (histogram sums / min / max) are updated with CAS retry
   loops; integer fields use [Atomic.fetch_and_add].  Cross-field reads
   (e.g. [mean] = sum / n) are not snapshotted atomically — a dump taken
   while another domain observes may be skewed by the in-flight update —
   but no update is ever lost, which is the invariant the parallel
   pipeline needs.

   Histograms keep a per-bucket sum alongside each count, so the mean is
   exact and quantiles interpolate linearly inside the bucket holding
   the target rank instead of reporting the bucket's upper bound; the
   overflow bucket interpolates up to the true max seen.

   [reset ()] zeroes every registered metric in place, keeping the
   references held by instrumented modules valid. *)

type counter = int Atomic.t

type histogram = {
  bounds : float array;  (* ascending bucket upper bounds *)
  bucket_counts : int Atomic.t array;  (* length = Array.length bounds + 1; last = overflow *)
  bucket_sums : float Atomic.t array;  (* same shape: sum of observations per bucket *)
  n : int Atomic.t;
  sum : float Atomic.t;
  sum_sq : float Atomic.t;
  min_seen : float Atomic.t;
  max_seen : float Atomic.t;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

(* Guards the registry tables (creation, fold, reset) — never the
   per-metric hot path. *)
let registry_lock = Mutex.create ()

(* --- atomic float helpers ---------------------------------------------- *)

let rec atomic_add_float a v =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. v)) then atomic_add_float a v

let rec atomic_min_float a v =
  let old = Atomic.get a in
  if v < old && not (Atomic.compare_and_set a old v) then atomic_min_float a v

let rec atomic_max_float a v =
  let old = Atomic.get a in
  if v > old && not (Atomic.compare_and_set a old v) then atomic_max_float a v

(* --- counters ---------------------------------------------------------- *)

let counter name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.replace counters name c;
          c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let value c = Atomic.get c

(* --- histograms -------------------------------------------------------- *)

(* Default bounds cover both sub-second span durations and small integer
   observations (query depths, list lengths). *)
let default_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 0.5; 1.0; 2.0; 5.0; 10.0; 30.0; 60.0; 300.0; 3600.0 |]

let histogram ?(bounds = default_bounds) name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h =
            {
              bounds;
              bucket_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
              bucket_sums = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0.0);
              n = Atomic.make 0;
              sum = Atomic.make 0.0;
              sum_sq = Atomic.make 0.0;
              min_seen = Atomic.make Float.infinity;
              max_seen = Atomic.make Float.neg_infinity;
            }
          in
          Hashtbl.replace histograms name h;
          h)

let bucket_index h v =
  let rec go i = if i >= Array.length h.bounds || v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  ignore (Atomic.fetch_and_add h.n 1);
  atomic_add_float h.sum v;
  atomic_add_float h.sum_sq (v *. v);
  atomic_min_float h.min_seen v;
  atomic_max_float h.max_seen v;
  let b = bucket_index h v in
  ignore (Atomic.fetch_and_add h.bucket_counts.(b) 1);
  atomic_add_float h.bucket_sums.(b) v

let count h = Atomic.get h.n
let sum h = Atomic.get h.sum
let mean h = if count h = 0 then 0.0 else sum h /. float_of_int (count h)

let stddev h =
  if count h = 0 then 0.0
  else
    let m = mean h in
    let var = (Atomic.get h.sum_sq /. float_of_int (count h)) -. (m *. m) in
    sqrt (Float.max 0.0 var)

let min_value h = if count h = 0 then None else Some (Atomic.get h.min_seen)
let max_value h = if count h = 0 then None else Some (Atomic.get h.max_seen)

(* Interpolated quantile: locate the bucket holding the continuous rank
   q*n, then interpolate linearly between the bucket's bounds by the
   rank's position inside it.  The first bucket's lower edge is pulled
   down to the min seen and the overflow bucket's upper edge is the max
   seen, so single-valued histograms and q = 1 are exact; the result is
   finally clamped to [min, max], which keeps the estimate inside the
   observed range even when a bucket is far wider than its contents. *)
let quantile h q =
  let n = count h in
  if n = 0 then None
  else
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = Float.max 1.0 (q *. float_of_int n) in
    let lo_edge i = if i = 0 then Atomic.get h.min_seen else h.bounds.(i - 1) in
    let hi_edge i =
      if i < Array.length h.bounds then h.bounds.(i) else Atomic.get h.max_seen
    in
    let nb = Array.length h.bucket_counts in
    let rec go i cum =
      if i >= nb then Some (Atomic.get h.max_seen)
      else
        let k = Atomic.get h.bucket_counts.(i) in
        if k > 0 && rank <= float_of_int (cum + k) then begin
          let frac = (rank -. float_of_int cum) /. float_of_int k in
          let lo = Float.min (lo_edge i) (hi_edge i) in
          let v = lo +. (frac *. (hi_edge i -. lo)) in
          Some
            (Float.max (Atomic.get h.min_seen) (Float.min (Atomic.get h.max_seen) v))
        end
        else go (i + 1) (cum + k)
    in
    go 0 0

(* Nonempty (upper-bound, count, sum) triples, overflow bucket last with
   no bound. *)
let buckets_with_sums h =
  let out = ref [] in
  Array.iteri
    (fun i k ->
      let k = Atomic.get k in
      if k > 0 then
        out :=
          ( (if i < Array.length h.bounds then Some h.bounds.(i) else None),
            k,
            Atomic.get h.bucket_sums.(i) )
          :: !out)
    h.bucket_counts;
  List.rev !out

(* --- observe-only fast path -------------------------------------------- *)

(* [observe] above costs ~8 atomic RMW operations; fine for per-span
   instrumentation, too heavy at hundreds of thousands of events per
   second.  A [Local.t] is a plain-field (unsynchronized) accumulator
   over the same buckets, owned by exactly one domain: [Local.observe]
   is a handful of loads and stores, and [Local.flush] folds the pending
   observations into the shared histogram in one pass — the serve loop
   observes per request and flushes once per batch, so shared-state
   traffic is O(batches), not O(requests). *)
module Local = struct
  type nonrec t = {
    target : histogram;
    l_counts : int array;
    l_sums : float array;
    mutable l_n : int;
    mutable l_sum : float;
    mutable l_sum_sq : float;
    mutable l_min : float;
    mutable l_max : float;
  }

  let create target =
    let nb = Array.length target.bucket_counts in
    {
      target;
      l_counts = Array.make nb 0;
      l_sums = Array.make nb 0.0;
      l_n = 0;
      l_sum = 0.0;
      l_sum_sq = 0.0;
      l_min = Float.infinity;
      l_max = Float.neg_infinity;
    }

  let observe l v =
    l.l_n <- l.l_n + 1;
    l.l_sum <- l.l_sum +. v;
    l.l_sum_sq <- l.l_sum_sq +. (v *. v);
    if v < l.l_min then l.l_min <- v;
    if v > l.l_max then l.l_max <- v;
    let b = bucket_index l.target v in
    l.l_counts.(b) <- l.l_counts.(b) + 1;
    l.l_sums.(b) <- l.l_sums.(b) +. v

  let flush l =
    if l.l_n > 0 then begin
      let h = l.target in
      Array.iteri
        (fun i k ->
          if k > 0 then begin
            ignore (Atomic.fetch_and_add h.bucket_counts.(i) k);
            atomic_add_float h.bucket_sums.(i) l.l_sums.(i);
            l.l_counts.(i) <- 0;
            l.l_sums.(i) <- 0.0
          end)
        l.l_counts;
      ignore (Atomic.fetch_and_add h.n l.l_n);
      atomic_add_float h.sum l.l_sum;
      atomic_add_float h.sum_sq l.l_sum_sq;
      atomic_min_float h.min_seen l.l_min;
      atomic_max_float h.max_seen l.l_max;
      l.l_n <- 0;
      l.l_sum <- 0.0;
      l.l_sum_sq <- 0.0;
      l.l_min <- Float.infinity;
      l.l_max <- Float.neg_infinity
    end
end

(* --- registry-wide operations ------------------------------------------ *)

let fold_counters f acc =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun name c acc -> f name (value c) acc) counters acc)

let fold_histograms f acc =
  Mutex.protect registry_lock (fun () -> Hashtbl.fold f histograms acc)

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.bucket_counts;
          Array.iter (fun b -> Atomic.set b 0.0) h.bucket_sums;
          Atomic.set h.n 0;
          Atomic.set h.sum 0.0;
          Atomic.set h.sum_sq 0.0;
          Atomic.set h.min_seen Float.infinity;
          Atomic.set h.max_seen Float.neg_infinity)
        histograms)
