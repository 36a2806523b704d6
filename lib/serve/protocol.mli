(** Wire protocol of the dependence-query daemon.

    A frame is a 4-byte big-endian length followed by a binary payload.
    Payloads are tagged messages written with {!Webdep_faults.Segment}'s
    payload codec: u8 tags and layer codes, u16 counts and k, u16-length
    strings, big-endian IEEE-754 floats.  Decoding refuses truncated and
    trailing bytes.  A JSON rendering of the same messages serves the
    daemon's newline-delimited JSON debug mode. *)

exception Protocol_error of string
(** An unencodable message (a string or count past its u16 field) or a
    corrupt frame length. *)

(** Epochs travel as names: the two measured worlds ["2023-05"] and
    ["2025-05"], or a churn-log epoch ["eK"]. *)
type request =
  | Ping
  | Score of { epoch : string; layer : Webdep.Dataset.layer; country : string }
  | Top_shares of { epoch : string; layer : Webdep.Dataset.layer; country : string; k : int }
  | Ranking of { epoch : string; layer : Webdep.Dataset.layer; k : int }
  | Delta of {
      layer : Webdep.Dataset.layer;
      country : string;
      old_epoch : string;
      new_epoch : string;
    }
  | Shutdown
  | Epochs

type share = { provider : string; home : string; share : float }

type response =
  | Pong
  | Scores of { s : float; hhi : float; insularity : float }
  | Shares of share list
  | Ranks of (string * float) list
  | Deltas of {
      old_epoch : string;
      new_epoch : string;
      old_s : float;
      new_s : float;
      delta : float;
    }
  | Overloaded
  | Bye
  | Draining
  | Epoch_list of string list
  | Error of string

val layer_code : Webdep.Dataset.layer -> int
(** The layer's wire code, 0..3. *)

val layer_of_code : int -> Webdep.Dataset.layer
(** @raise Protocol_error outside 0..3. *)

val epoch_of_name : string -> Webdep_worldgen.World.epoch option
(** The measured world a name ("2023", "2023-05", "2025", "2025-05")
    stands for. *)

(** {2 Binary payloads} *)

val encode_request : request -> string
(** @raise Protocol_error when a string or [k] does not fit its u16 field. *)

val decode_request : string -> (request, string) result
val encode_response : response -> string
(** @raise Protocol_error when a string or list does not fit its u16 field. *)

val decode_response : string -> (response, string) result

(** {2 Framing} *)

val max_payload : int
(** The largest frame payload, and the longest pending JSON line, the
    daemon accepts: 16 MiB. *)

val frame : string -> string
(** Prefix a payload with its length.
    @raise Protocol_error on an empty payload or one past {!max_payload}. *)

val parse_frames : Bytes.t -> int -> string list * int
(** Every complete frame in the first [len] bytes, in arrival order, and
    the bytes they take; a trailing partial frame is left for later.
    @raise Protocol_error on a corrupt length prefix, after which the
    stream cannot be resynchronized. *)

(** {2 JSON lines} *)

val request_to_json : request -> Webdep_json.t

val request_of_json_string : string -> (request, string) result
(** Parse one JSON request line.  Epoch shorthands canonicalize
    ("2023" is "2023-05"); a [delta] without [old_epoch]/[new_epoch]
    compares 2023-05 with 2025-05. *)

val response_to_json : response -> Webdep_json.t

(** {2 The query language} *)

val parse_query : epoch:string -> string list -> (request, string) result
(** The positional syntax of [webdep query]: [ping], [epochs],
    [score LAYER CC], [topk LAYER CC K], [ranking LAYER K],
    [delta LAYER CC [OLD NEW]] or [shutdown]. *)

val render : response -> string
(** The human rendering shared by the one-shot CLI and the [--connect]
    client, so daemon answers print byte-identical to local ones. *)
