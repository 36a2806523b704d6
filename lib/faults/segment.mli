(** The one on-disk segment format behind every file webdep persists:
    the sweep checkpoint and the epoch churn log.

    A segment is a sequence of records, each framed as
    [[u32 len][u32 CRC-32(payload)][payload]], big-endian.  The first
    record is the header: opaque bytes that the schema on top checks
    (each schema's header starts with its own schema tag).  A schema
    defines its header and its record payloads, nothing more; framing,
    checksums, durable writes and torn-tail recovery live here once.

    This module also holds the payload codec: length-prefixed strings,
    fixed-width integers, IEEE-754 floats and the shared site-list
    codec.  The query daemon's wire protocol encodes its messages with
    it too. *)

(** {2 Records} *)

type 'acc folded =
  | No_file  (** the path does not exist *)
  | Header_mismatch
      (** no intact header record, or the schema refused it — the file
          belongs to another schema, world or sweep *)
  | Folded of { acc : 'acc; torn : bool }
      (** the accumulator after the last accepted record; [torn] is set
          when reading stopped before the end of the file *)

val fold :
  path:string ->
  init:(string -> 'acc option) ->
  f:('acc -> string -> 'acc option) ->
  'acc folded
(** Stream the records of [path], holding one payload at a time.
    [init] receives the header payload and returns the initial
    accumulator, or [None] to refuse the file.  [f] then sees each
    following payload in file order.  Reading stops with [torn] set at
    the first short read, length prefix larger than the bytes left in
    the file (checked before allocating), CRC mismatch, or record that
    [f] refuses by returning [None] or raising {!Malformed}. *)

val write : path:string -> header:string -> string list -> unit
(** Write the header and records to a temp file beside [path], fsync it
    and rename it over [path].  Readers see the old file or the complete
    new one, never a prefix. *)

val append : path:string -> string list -> unit
(** Append records to [path] through one buffered channel, then flush
    and fsync. *)

val last : path:string -> len:int -> string option
(** The payload of the file's final record when the last [8 + len]
    bytes of [path] are one intact record of payload length [len].
    Reads only those bytes, so it costs O(1) however long the file.
    @raise Sys_error if [path] cannot be opened. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, reflected) of a string, in [0, 2{^32}). *)

(** {2 Payload codec} *)

exception Malformed of string
(** Raised by the decoders below on a payload that is truncated, has
    trailing bytes or holds an out-of-range value. *)

val add_u8 : Buffer.t -> int -> unit

val add_u16 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [0, 0xFFFF]. *)

val add_u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [0, 0xFFFFFFFF]. *)

val add_int : Buffer.t -> int -> unit
(** A 64-bit signed integer. *)

val add_f64 : Buffer.t -> float -> unit
(** The float's 64 IEEE-754 bits, so NaN payloads survive. *)

val add_str : Buffer.t -> string -> unit
(** A string with a u16 length prefix.
    @raise Invalid_argument past 0xFFFF bytes. *)

val add_strs : Buffer.t -> string list -> unit
(** A u32 count, then each string as {!add_str}. *)

val add_sites : Buffer.t -> Webdep.Dataset.site list -> unit
(** A site list: a string table of the entity names, country codes,
    geo labels and language tags it uses (u16 ids in first-use order),
    then a u32 site count and per site its raw domain, table ids and
    one anycast flags byte.
    @raise Invalid_argument past 0xFFFF distinct table strings. *)

type cursor
(** A read position in one payload. *)

val decode : string -> (cursor -> 'a) -> 'a
(** [decode payload f] runs [f] over [payload] and requires it to
    consume every byte.
    @raise Malformed on trailing bytes. *)

val peek : string -> (cursor -> 'a) -> 'a
(** [peek payload f] runs [f] over the start of [payload] and ignores
    the bytes it leaves. *)

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_int : cursor -> int
val get_f64 : cursor -> float
val get_str : cursor -> string
val get_strs : cursor -> string list
val get_sites : cursor -> Webdep.Dataset.site list
