(** Hotspot aggregation: span events -> per-label self/cumulative totals. *)

type row = {
  label : string;
  calls : int;
  self_s : float;  (** wall time excluding nested child spans *)
  cum_s : float;  (** wall time including children (recursive labels double-count) *)
  self_minor_words : float;
  cum_minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

(** Fold a span stream into per-label rows, sorted by self time
    descending.  Events may arrive in any order; nesting is recovered
    from (lane, close time, depth). *)
val aggregate : Webdep_obs.Sink.event list -> row list

(** The in-memory span recorder.  Install [collector_sink c] (possibly
    teed with another sink) around a workload, then [aggregate (events
    c)] or write them with {!Trace.write}. *)
type collector

val collector : unit -> collector
val collector_sink : collector -> Webdep_obs.Sink.t
val events : collector -> Webdep_obs.Sink.event list

(** Fixed-width hotspot table, top [top] rows (default 20) plus a
    totals footer. *)
val render : ?top:int -> row list -> string
