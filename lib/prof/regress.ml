(* Noise-aware bench regression gate: current run vs. saved baseline.

   Raw per-phase wall times are useless across machines — a laptop and a
   CI runner differ by a constant-ish factor.  The gate estimates that
   factor as the *median* of cur/base ratios over all phases long enough
   to trust, then flags a phase only when its own ratio exceeds the
   median by more than the tolerance: a uniformly slower machine moves
   the median, a genuinely regressed phase sticks out from it.

   Tolerance comes from measured noise, not a magic constant: callers
   probe run-to-run spread (coefficient of variation of a repeated
   workload) and the gate allows max(0.5, 6*cv) relative headroom above
   the speed factor, with a 50 ms absolute floor so microsecond phases
   never alarm.

   Allocation is machine-independent, so minor-word counts gate on raw
   ratios: >30 % growth AND >1e6 extra words is a regression.  A phase
   present in the baseline but absent from the current run fails — a
   deleted benchmark should be a deliberate baseline update, not a
   silent pass. *)

module Json = Webdep_json

type phase = { name : string; secs : float; minor_words : float }

type check = Time | Alloc | Missing

type verdict = {
  phase : string;
  check : check;
  base : float;
  cur : float;
  ratio : float;  (* speed-normalized for Time, raw for Alloc, nan for Missing *)
  limit : float;
  ok : bool;
}

type report = {
  speed_factor : float;
  noise_cv : float;
  time_tolerance : float;
  verdicts : verdict list;
  ok : bool;
}

(* Phases below this are timer noise; exclude from the speed-factor
   estimate and never alarm on them. *)
let abs_floor_s = 0.05
let alloc_rel_tolerance = 0.3
let alloc_floor_words = 1e6

exception Bad_phases of string

(* Strict: a value read as 0 would fall under both gate floors, and the
   phase would never be checked. *)
let phases_of_json j =
  let refuse fmt = Printf.ksprintf (fun msg -> raise (Bad_phases msg)) fmt in
  let obj k =
    match Json.member k j with
    | Some (Json.Obj l) -> l
    | Some _ -> refuse "%s is not an object" k
    | None -> refuse "no %s object" k
  in
  let num table name = function
    | Json.Float v -> v
    | Json.Int i -> float_of_int i
    | _ -> refuse "phase %s: %s value is not a number" name table
  in
  let secs = obj "phases_s" in
  let words = obj "phases_minor_words" in
  List.map
    (fun (name, v) ->
      match List.assoc_opt name words with
      | Some w ->
          let secs = num "phases_s" name v in
          { name; secs; minor_words = num "phases_minor_words" name w }
      | None -> refuse "phase %s: no phases_minor_words entry" name)
    secs

(* Run-to-run spread of [f]: coefficient of variation of its wall time
   over [runs] repetitions (first run discarded as warm-up). *)
let noise_probe ?(runs = 5) f =
  let time () =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  ignore (time ());
  let samples = List.init (max 2 runs) (fun _ -> time ()) in
  let n = float_of_int (List.length samples) in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  if mean <= 0.0 then 0.0
  else
    let var =
      List.fold_left (fun acc s -> acc +. ((s -. mean) ** 2.0)) 0.0 samples /. n
    in
    sqrt var /. mean

let median = function
  | [] -> 1.0
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Clamped above: a pathologically jittery probe (tiny workload, cold
   caches, GC pause in one sample) must not disable the gate outright. *)
let time_tolerance noise_cv = Float.max 0.5 (Float.min 2.0 (6.0 *. noise_cv))

let compare_runs ?(noise_cv = 0.0) ~baseline ~current () =
  let find l name = List.find_opt (fun p -> p.name = name) l in
  let eligible =
    List.filter_map
      (fun b ->
        match find current b.name with
        | Some c when b.secs >= abs_floor_s && c.secs > 0.0 -> Some (c.secs /. b.secs)
        | _ -> None)
      baseline
  in
  let speed_factor = median eligible in
  let tol = time_tolerance noise_cv in
  let verdicts =
    List.concat_map
      (fun b ->
        match find current b.name with
        | None ->
            [ { phase = b.name; check = Missing; base = b.secs; cur = 0.0;
                ratio = Float.nan; limit = 0.0; ok = false } ]
        | Some c ->
            let time_v =
              if b.secs < abs_floor_s then []
              else
                let norm = c.secs /. b.secs /. speed_factor in
                let excess_s = c.secs -. (b.secs *. speed_factor) in
                let ok = norm -. 1.0 <= tol || excess_s <= abs_floor_s in
                [ { phase = b.name; check = Time; base = b.secs; cur = c.secs;
                    ratio = norm; limit = 1.0 +. tol; ok } ]
            in
            let alloc_v =
              if b.minor_words < alloc_floor_words then []
              else
                let ratio = c.minor_words /. b.minor_words in
                let ok =
                  ratio -. 1.0 <= alloc_rel_tolerance
                  || c.minor_words -. b.minor_words <= alloc_floor_words
                in
                [ { phase = b.name; check = Alloc; base = b.minor_words;
                    cur = c.minor_words; ratio; limit = 1.0 +. alloc_rel_tolerance; ok } ]
            in
            time_v @ alloc_v)
      baseline
  in
  {
    speed_factor;
    noise_cv;
    time_tolerance = tol;
    verdicts;
    ok = List.for_all (fun (v : verdict) -> v.ok) verdicts;
  }

let check_name = function Time -> "time" | Alloc -> "alloc" | Missing -> "missing"

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "bench compare: speed factor %.3fx (median cur/base), noise cv %.3f, time tolerance +%.0f%%\n"
       r.speed_factor r.noise_cv (r.time_tolerance *. 100.0));
  Buffer.add_string b
    (Printf.sprintf "%-24s %-8s %12s %12s %9s %9s  %s\n" "phase" "check" "base" "current"
       "ratio" "limit" "verdict");
  List.iter
    (fun v ->
      let fmt x =
        match v.check with
        | Alloc -> Printf.sprintf "%.0f" x
        | _ -> Printf.sprintf "%.4fs" x
      in
      Buffer.add_string b
        (Printf.sprintf "%-24s %-8s %12s %12s %9s %9s  %s\n" v.phase
           (check_name v.check) (fmt v.base)
           (match v.check with Missing -> "-" | _ -> fmt v.cur)
           (if Float.is_nan v.ratio then "-" else Printf.sprintf "%.3f" v.ratio)
           (match v.check with Missing -> "-" | _ -> Printf.sprintf "%.3f" v.limit)
           (if v.ok then "ok" else "REGRESSION")))
    r.verdicts;
  Buffer.add_string b
    (if r.ok then "bench compare: OK\n" else "bench compare: REGRESSION detected\n");
  Buffer.contents b
