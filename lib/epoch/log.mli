(** Append-only churn transaction log: a baseline snapshot (the
    compacted head) followed by per-epoch churn records, each epoch
    closed by a commit record.

    The on-disk format is a {!Webdep_faults.Segment}: whole-file writes
    are atomic (temp + fsync + rename), appends are epoch-at-a-time with
    the commit record last, and {!load} recovers from a torn or corrupt
    tail and from a commit-less suffix by dropping everything after the
    last committed epoch. *)

type churn = {
  country : string;
  removed : string list;  (** domains leaving the country's toplist *)
  added : Webdep.Dataset.site list;  (** fully-measured arriving sites *)
}

type event = { epoch : int; changes : churn list }

type t = {
  meta : (string * Webdep_json.t) list;
      (** caller metadata from the header (world seed, size, ...) *)
  base_epoch : int;
  base : Webdep.Dataset.country_data list;  (** baseline, canonical country order *)
  events : event list;  (** committed epochs, ascending *)
  head : int;  (** last committed epoch; [base_epoch] when no events *)
  dropped : bool;  (** a torn tail or uncommitted epoch was discarded *)
}

type verdict = Absent | Mismatch of string | Loaded of t

val schema : string

val create :
  path:string ->
  ?meta:(string * Webdep_json.t) list ->
  base_epoch:int ->
  base:Webdep.Dataset.country_data list ->
  unit ->
  unit
(** Write a fresh log holding only the committed baseline, atomically. *)

val append : path:string -> epoch:int -> churn list -> unit
(** Append one committed epoch — churn records, then the commit record,
    then fsync.  O(churn), independent of log length.  A crash before
    the commit reaches disk leaves the epoch invisible to {!load}.

    This checks framing only: it commits records that do not apply to
    the log's state (an absent domain removed, a present one added, a
    country outside the baseline), and every replay of the log then
    refuses it.  {!Replay.append} checks the records first.
    @raise Invalid_argument unless the file ends in an intact commit
    record for an epoch below [epoch] (checked from its last 17 bytes):
    a torn log must be loaded and rewritten with {!write} first. *)

val tail : path:string -> int option
(** The epoch of the commit record [path] ends in, read from its last 17
    bytes; [None] when the file does not end in an intact commit.
    @raise Sys_error if [path] cannot be opened. *)

val write : path:string -> t -> unit
(** Atomic whole-log rewrite — how compaction publishes its result, and
    how a torn log is repaired before appending again. *)

val load : path:string -> verdict
(** Read the log back, keeping the longest committed prefix.  [Mismatch]
    reports a foreign or unreadable header, or a baseline cut before its
    commit;  [dropped] on the loaded log flags recovered-over damage. *)
