(** GDB/RPC-layer error codes (com_err table "gdb"). *)

val bad_frame : int
(** Request or reply failed to parse. *)

val version_skew : int
(** Client and server protocol versions differ. *)

val no_connection : int
(** Request named a connection id the server does not know. *)

val too_many_connections : int
(** Server is at its connection limit. *)
