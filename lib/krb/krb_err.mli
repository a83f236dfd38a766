(** Kerberos error codes, registered as a com_err table ("krb"). *)

val princ_unknown : int
(** Principal is not in the KDC database. *)

val bad_password : int
(** Password / key mismatch. *)

val princ_exists : int
(** Principal already registered. *)

val ticket_expired : int
(** Ticket lifetime has passed. *)

val replay : int
(** Authenticator already seen. *)

val skew : int
(** Authenticator timestamp too far from server time. *)

val service_unknown : int
(** No srvtab entry for that service. *)

val bad_authenticator : int
(** Authenticator failed to decode (wrong key or corrupt). *)

val no_ticket : int
(** Client has no ticket ("can't find ticket"). *)
