(** Trace sinks: where finished spans go.  One sink is active at a
    time, process-wide; the default, {!null}, drops every event. *)

(** GC counter movement across a span, in words ([Gc.minor_words] for
    the minor heap, [Gc.quick_stat] deltas for the rest). *)
type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

val zero_gc : gc_delta

type event = {
  name : string;
  attrs : (string * string) list;
  start_s : float;  (** seconds since process start *)
  duration_s : float;
  depth : int;  (** nesting depth at span entry, outermost = 0 *)
  lane : int;  (** emitting lane: pool worker index, or the raw domain id *)
  gc : gc_delta;  (** GC counter movement while the span was open *)
}

type t = { emit : event -> unit }
(** [emit] may be called from any domain. *)

val null : t

val set : t -> unit
(** Make the argument the active sink. *)

val current : unit -> t
val emit : event -> unit

val with_sink : t -> (unit -> 'a) -> 'a
(** Run the function with the sink active, then restore the previous
    one (also on an exception). *)

val tee : t -> t -> t
(** Every event goes to the first sink, then the second. *)

val console : unit -> t
(** Pretty-print each span through [Logs] at level [App], indented by
    depth. *)
