(** JSON snapshot of every registered counter and histogram, schema
    ["webdep-metrics/2"]: counters, plain histograms and span-duration
    histograms (names under {!Span.histogram_prefix}, listed without the
    prefix) in three sections, each in sorted key order, so two runs of
    one workload diff cleanly. *)

val snapshot : unit -> Webdep_json.t

val write_file : string -> unit
(** Write {!snapshot} to the path, one line.  @raise Sys_error when the
    file cannot be written. *)

val reset : unit -> unit
(** {!Metrics.reset}. *)
