(** A single-process RPC server multiplexing many client connections
    (paper section 5.4): one handler services every connection, keeping
    per-connection state — exactly the structure GDB's non-blocking I/O
    gave the real Moira server.

    The server optionally models a heavyweight *backend startup* cost,
    paid either once at server start (Moira's design: the INGRES backend
    is spawned "only once, at the start up time of the daemon") or on
    every new connection (Athenareg's design, the motivating bottleneck).
    Benchmark E3 compares the two. *)

type backend_cost =
  | Per_server of int  (** Pay [ms] once, when the server starts. *)
  | Per_connection of int  (** Pay [ms] on every connection open. *)

type 'st t

type 'st conn_info = {
  conn_id : int;  (** The connection id. *)
  peer : string;  (** Client hostname. *)
  connect_time : int;  (** Engine ms when the connection opened. *)
  state : 'st;  (** Application per-connection state. *)
}

val create :
  ?max_connections:int ->
  ?backend:backend_cost ->
  net:Netsim.Net.t ->
  host:Netsim.Host.t ->
  service:string ->
  init:(peer:string -> 'st) ->
  handler:('st conn_info -> Wire.request -> int * string list list) ->
  unit ->
  'st t
(** Register the server on [host] under [service].  [init] builds the
    per-connection state when a connection opens; [handler] services
    application ops, returning [(error_code, tuples)].  Open/close ops
    and version checking are handled by this layer.  A connection is
    bound to the host that opened it: a request or close naming it from
    any other host is answered with [Gdb_err.no_connection].  One host
    may hold a quarter of [max_connections]: an open from a host at its
    quota first closes that host's least recently used connection, so
    connections whose open reply was lost heal by themselves.  A table
    of fewer than four slots has no per-host bound.  Default [backend] is [Per_server 0];
    [max_connections] defaults to 64. *)

val connections : 'st t -> 'st conn_info list
(** Live connections, oldest first (feeds Moira's [_list_users]). *)

val connection_count : 'st t -> int
(** Number of live connections. *)

val requests_served : 'st t -> int
(** Total application requests handled since creation. *)
