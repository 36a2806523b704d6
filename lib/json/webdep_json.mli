(** Minimal JSON tree: the metrics snapshot, the JSON-lines trace sink,
    segment headers, bench documents and traces.  No external
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** integral values print with a [.0] or an exponent, so they read
          back as floats; NaN and ±∞ print as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** What {!parse} refuses, and at which byte offset. *)

val to_string : t -> string
(** Compact RFC 8259 text.  Every float64 prints exactly
    round-trippable, and {!parse} reads any printed tree back to
    itself. *)

val parse : string -> t
(** A whole document: the subset {!to_string} prints, plus surrounding
    whitespace and the escapes [\/], [\b], [\f] and [\uXXXX] (four hex
    digits, decoded as UTF-8).
    @raise Parse_error on anything else, trailing bytes included. *)

val member : string -> t -> t option
(** The first field named [key] of an [Obj]; [None] for a missing field
    or a value that is not an object. *)
