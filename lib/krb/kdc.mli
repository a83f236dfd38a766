(** The simulated Kerberos key-distribution centre and the client/server
    ticket exchange.

    Model: principals have password-derived keys; services have random
    srvtab keys.  A client obtains {!credentials} (a service ticket plus
    session key) by presenting a password; {!mk_req} packages a wire
    authenticator; a server's {!server_ctx} verifies it with its srvtab
    key, enforcing lifetime, clock skew and replay protection (the paper
    requires safety against "replay of transactions").

    Clients and servers in the simulation hold a direct reference to the
    KDC (the real deployment's UDP exchange with the KDC adds nothing to
    the behaviour under study); the *authenticators* exchanged between
    Moira clients and servers do travel over the simulated network. *)

type t

val create : clock:(unit -> int) -> unit -> t
(** A KDC whose notion of seconds comes from [clock]. *)

(** {1 Administration} *)

val add_principal : t -> name:string -> password:string -> (unit, int) result
(** Register a user principal.  [Error Krb_err.princ_exists] if taken. *)

val principal_exists : t -> string -> bool
(** Whether the principal is registered. *)

val reserve_principal : t -> name:string -> (unit, int) result
(** Reserve a name with no usable key yet — what the registration server
    does on [grab_login] before the password is set. *)

val set_password : t -> name:string -> password:string -> (unit, int) result
(** (Re)set a principal's key — the registration server's [set_password].
    Also activates a reserved principal. *)

val delete_principal : t -> name:string -> (unit, int) result
(** Remove a principal. *)

val register_service : t -> string -> string
(** Create (or fetch) the srvtab key for a service principal. *)

(** {1 Client side} *)

type credentials
(** A service ticket and its session key, held by a client. *)

val get_ticket :
  t -> principal:string -> password:string -> service:string ->
  (credentials, int) result
(** Authenticate with a password and obtain credentials for [service].
    Default ticket lifetime is 8 hours.  Errors: {!Krb_err.princ_unknown},
    {!Krb_err.bad_password}, {!Krb_err.service_unknown}. *)

val mk_req : t -> credentials -> string
(** The wire authenticator: the (service-key encrypted) ticket plus a
    (session-key encrypted) authenticator stamped with the current time. *)

(** {1 Server side} *)

type server_ctx
(** A server's verification state: its srvtab key plus a replay cache. *)

val server_ctx : t -> service:string -> (server_ctx, int) result
(** Build the verification context for [service] (reads its srvtab).
    [Error Krb_err.service_unknown] if the service is not registered. *)

val rd_req : server_ctx -> string -> (string, int) result
(** Verify a wire authenticator; on success return the authenticated
    principal name.  Errors: {!Krb_err.bad_authenticator},
    {!Krb_err.ticket_expired}, {!Krb_err.skew}, {!Krb_err.replay}. *)
