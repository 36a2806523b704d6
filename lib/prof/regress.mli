(** Noise-aware bench regression gate: current run vs. saved baseline.

    Per-phase wall-time ratios are normalized by their median (the
    "speed factor") so a uniformly faster or slower machine never
    alarms; only phases that stick out from the median beyond a
    noise-derived tolerance fail.  Minor-allocation counts are
    machine-independent and gate on raw ratios. *)

type phase = { name : string; secs : float; minor_words : float }

type check = Time | Alloc | Missing

type verdict = {
  phase : string;
  check : check;
  base : float;
  cur : float;
  ratio : float;  (** speed-normalized for [Time], raw for [Alloc], nan for [Missing] *)
  limit : float;
  ok : bool;
}

type report = {
  speed_factor : float;  (** median cur/base over phases >= 50 ms *)
  noise_cv : float;
  time_tolerance : float;  (** max(0.5, 6 * noise_cv), clamped to at most 2.0 *)
  verdicts : verdict list;
  ok : bool;
}

(** Extract phases from a bench JSON document ("phases_s" +
    "phases_minor_words" objects). *)
val phases_of_json : Webdep_json.t -> phase list

(** Coefficient of variation of [f]'s wall time over [runs] timed
    repetitions (plus one discarded warm-up). *)
val noise_probe : ?runs:int -> (unit -> unit) -> float

(** Tolerance the gate derives from a measured noise cv. *)
val time_tolerance : float -> float

val compare_runs :
  ?noise_cv:float -> baseline:phase list -> current:phase list -> unit -> report

(** Human-readable verdict table. *)
val render : report -> string
