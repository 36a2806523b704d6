(** Listen and connect address specs shared by the daemon and its
    clients: ["tcp:PORT"] is loopback TCP, anything else is a
    Unix-domain socket path. *)

type t = Unix_path of string | Tcp of int

val of_spec : string -> t
(** @raise Invalid_argument on a ["tcp:"] spec whose port is not in
    [1, 65535]. *)

val domain : t -> Unix.socket_domain
val sockaddr : t -> Unix.sockaddr

val unlink_if_unix : t -> unit
(** Remove a Unix socket's path, ignoring a missing one. *)
