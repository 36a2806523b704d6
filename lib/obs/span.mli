(** Timing spans: wall-clock duration and GC movement of a function
    call, recorded into the histogram {!histogram_prefix}[ ^ name] and
    emitted to the active {!Sink}.  Spans nest per domain; an exception
    still closes the span and propagates. *)

val timed : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a * float
(** Run the function in a span and return its value with the span's
    duration in seconds: the same float the histogram and the event
    record. *)

val with_ : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** {!timed} without the duration. *)

val histogram_prefix : string
(** ["span."]: the prefix of every span-duration histogram's name. *)

val set_lane : int -> unit
(** Claim a stable lane index for the calling domain's events (pool
    workers take 1..jobs-1). *)

val lane : unit -> int
(** The calling domain's lane: the one it claimed, else its raw domain
    id (so the main domain is lane 0). *)
