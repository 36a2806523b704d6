(** Logs reporter installation for the CLI and the bench. *)

val level_of_verbosity : int -> Logs.level
(** The CLI's repeated [-v] count: 0 is warnings, 1 info, 2 or more
    debug. *)

val setup : ?level:Logs.level -> unit -> unit
(** Install a format reporter on stderr ([App] messages on stdout) at
    [level] (default warnings). *)
