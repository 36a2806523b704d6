(** Chrome trace-event (Perfetto-loadable) export of span streams.

    Load the written file in https://ui.perfetto.dev or chrome://tracing:
    each OCaml domain (pool lane) renders as its own track, nested spans
    as stacked slices — a flamegraph-style timeline of the run. *)

(** Write the given events (as a {!Profile.collector} records them) to
    [path] as a trace document.
    @raise Sys_error when [path] cannot be written. *)
val write : string -> Webdep_obs.Sink.event list -> unit

exception Bad_trace of string
(** Why a file is not a trace document. *)

(** Parse a trace document back into span events (inverse of [write] up
    to event order and float rounding); an absent span field reads as
    zero.  @raise Bad_trace on an empty, non-JSON or truncated file, or
    an event with a field of the wrong type (named by its index). *)
val load : string -> Webdep_obs.Sink.event list

(** The document as a JSON tree (exposed for tests). *)
val document : Webdep_obs.Sink.event list -> Webdep_json.t
