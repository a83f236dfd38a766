(** The Moira application library (paper section 5.6.2).

    The calls mirror the C library: [mr_connect], [mr_auth],
    [mr_disconnect], [mr_noop], [mr_access], [mr_query].  All return
    com_err codes (zero on success); query results arrive through a
    per-tuple callback, exactly as in the paper. *)

type t
(** A client handle, bound to the workstation it runs on. *)

val create : Netsim.Net.t -> src:string -> t
(** A handle for programs running on host [src].  No connection is made. *)

val mr_connect : t -> dst:string -> int
(** Connect to the Moira server on [dst].  Does not authenticate — simple
    read-only queries may not need it and authentication costs as much as
    a query.  Errors include [Mr_err.already_connected],
    [Mr_err.cant_connect], and transport failures. *)

val mr_auth : t -> kdc:Krb.Kdc.t -> principal:string -> password:string ->
  clientname:string -> int
(** Obtain Kerberos credentials for the [moira] service and present them
    on the open connection.  [clientname] names the program acting for
    the user.  Errors: Kerberos failures (local or remote),
    [Mr_err.not_connected], [Mr_err.aborted]. *)

val mr_disconnect : t -> int
(** Drop the connection.  [Mr_err.not_connected] if there is none. *)

val mr_noop : t -> int
(** Handshake with the server, for testing and performance measurement. *)

val mr_access : t -> name:string -> string list -> int
(** Would the named query be allowed?  Zero if so, else the refusal. *)

val mr_query :
  t -> name:string -> string list ->
  callback:(string list -> unit) -> int
(** Run a query; [callback] receives each returned tuple in order. *)

val mr_query_list :
  t -> name:string -> string list -> (string list list, int) result
(** Convenience wrapper collecting the tuples in a list. *)

val is_connected : t -> bool
(** Whether the handle currently holds a connection. *)

(** {1 Replica reads}

    With replicas configured, retrieval queries fan out round-robin
    across healthy read-only replicas while mutations keep going to the
    primary.  Every query then travels sequenced
    ([Protocol.op_query2]): the client sends its high-water journal
    sequence number and a replica that has not caught up to it answers
    [Mr_err.replica_stale], making the client try the next replica and
    ultimately the primary — so a client always observes its own
    writes.  A replica that fails [quarantine_after] consecutive
    transport attempts is quarantined with exponential, jittered
    backoff; quarantine expiry doubles as the probe. *)

type failover = {
  quarantine_after : int;  (** consecutive failures before quarantine *)
  backoff_base_ms : int;  (** first quarantine duration *)
  backoff_max_ms : int;  (** backoff cap *)
  backoff_jitter : float;  (** uniform jitter fraction on the backoff *)
}

val set_replicas : ?failover:failover -> t -> string list -> unit
(** Configure the read replicas (hostnames running a replica server).
    Passing [[]] restores plain single-server behaviour.  Connections
    to replicas open lazily and replay the client's credentials. *)

val high_water : t -> int
(** The client's high-water journal sequence number: the newest write
    it has made (or the newest server state it has observed). *)

val replica_status : t -> (string * bool) list
(** Each configured replica with its quarantine flag ([true] =
    currently quarantined). *)
