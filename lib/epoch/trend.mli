(** Trend extraction over an epoch stream: per-country S series and
    least-squares slope, plus a per-transition rank-churn series. *)

type series = {
  country : string;
  scores : float array;
      (** S at each observed epoch (base..head); NaN where unscored *)
  slope : float;  (** least-squares slope of S per epoch *)
}

type t = {
  epochs : int array;  (** observed epoch numbers, base..head *)
  series : series list;  (** baseline country order *)
  rank_churn : int array;
      (** total absolute rank displacement per adjacent-epoch transition *)
}

val of_scores :
  countries:string list ->
  epochs:int array ->
  (string * float) list array ->
  t
(** Assemble trends from per-epoch (country, S) observations. *)

val of_log : Log.t -> Webdep.Dataset.layer -> Replay.t * t
(** Replay the whole log, collecting one layer's scores at every epoch;
    returns the final replay state (the head) alongside the trends. *)

val render : t -> string
(** Fixed-width trend table: first/last S and slope per country, then
    the rank-churn line. *)
