(* Per-domain measurement outcomes and per-country coverage. *)

type outcome = Clean | Degraded | Failed

type tally = { clean : int; degraded : int; failed : int }

let empty = { clean = 0; degraded = 0; failed = 0 }

let add t = function
  | Clean -> { t with clean = t.clean + 1 }
  | Degraded -> { t with degraded = t.degraded + 1 }
  | Failed -> { t with failed = t.failed + 1 }

let total t = t.clean + t.degraded + t.failed

(* Degraded domains still yield (partial) measurements, so they count
   toward coverage; only outright failures reduce it. *)
let ratio t =
  let n = total t in
  if n = 0 then 1.0 else float_of_int (t.clean + t.degraded) /. float_of_int n

let sufficient ~threshold t = ratio t >= threshold
