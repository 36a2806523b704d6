(** Wire protocol of the dependence-query daemon.

    A frame is a 4-byte big-endian length followed by a binary payload.
    Payloads are tagged messages written with {!Webdep_faults.Segment}'s
    payload codec: u8 tags and layer codes, u16 counts and k, u16-length
    strings, big-endian IEEE-754 floats.  Decoding refuses truncated and
    trailing bytes. *)

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

(** {2 Binary payloads} *)

val encode_request : request -> string
(** @raise Protocol_error when a string or [k] does not fit its u16 field. *)

val decode_request : string -> (request, string) result
val encode_response : response -> string
(** @raise Protocol_error when a string or list does not fit its u16 field. *)

val decode_response : string -> (response, string) result

(** {2 Framing} *)

val max_payload : int
(** The largest frame payload: 16 MiB. *)

val frame : string -> string
(** Prefix a payload with its length.
    @raise Protocol_error on an empty payload or one past {!max_payload}. *)

val next_frame : Bytes.t -> int -> int -> string option
(** [next_frame buf off stop]: the payload of the frame that starts at
    [off], once [buf.[off..stop)] holds all of it, or [None] while part
    of it has yet to arrive.  The frame takes [4 + String.length
    payload] bytes.  The one reader of frames, for the daemon and the
    client alike.
    @raise Protocol_error on a length prefix outside [1..max_payload]
    (the first four bytes of any line of text read as one), after which
    the stream cannot be resynchronized. *)

(** {2 The query language} *)

val parse_query : epoch:string -> string list -> (request, string) result
(** The positional syntax of [webdep query]: [ping], [epochs],
    [score LAYER CC], [topk LAYER CC K], [ranking LAYER K],
    [delta LAYER CC [OLD NEW]] or [shutdown]. *)

val render : response -> string
(** The human rendering shared by the one-shot CLI and the [--connect]
    client, so daemon answers print byte-identical to local ones. *)
