(** A fully wired simulated Athena: the Moira database machine (server,
    registration server, DCM), the KDC, and every managed server host
    (hesiod, NFS, mail hub, zephyr) with its update service and install
    scripts — Figure 1 of the paper, running on the discrete-event
    engine. *)

type t = {
  engine : Sim.Engine.t;
  net : Netsim.Net.t;
  kdc : Krb.Kdc.t;
  mdb : Moira.Mdb.t;
  server : Moira.Mr_server.t;
  glue : Moira.Glue.t;  (** Privileged direct handle (used by the DCM). *)
  dcm : Dcm.Manager.t;
  built : Population.built;
  hesiods : (string * Hesiod.Hes_server.t) list;
  zephyrs : (string * Zephyr.t) list;
  pops : (string * Pop.Pop_server.t) list;
  mailhub : Pop.Mailhub.t;
  userreg : Userreg.server;
  sanitizer : Dcm.Sanitizer.t option;
      (** The lock-discipline sanitizer, when enabled (see {!create}). *)
  repl_primary : Relation.Replicate.primary option;
      (** The journal replication stream, when replicas were asked for. *)
  replicas : (string * Moira.Mr_server.replica) list;
      (** Read-only replica servers by machine name. *)
  lanes : (string * Obs.t) list;
      (** Span lanes by machine: the Moira machine's ([Obs.default])
          first, then one per-host registry for every serving host and
          replica — the input {!Obs.merge_trace_json} stitches. *)
}

val create :
  ?spec:Population.spec ->
  ?backend:Gdb.Server.backend_cost ->
  ?access_cache:bool ->
  ?dcm_every_min:int ->
  ?retry:Dcm.Manager.retry_policy ->
  ?sanitize:bool ->
  ?replicas:int ->
  ?repl_poll_ms:int ->
  ?repl_retain:int ->
  unit ->
  t
(** Build the world: engine + network + KDC + database, populate it
    (default [Population.small]), start every server, arm the DCM cron
    (default every 15 simulated minutes, the paper's minimum
    distribution interval).  The moira server's Trigger_DCM request is
    wired to an immediate DCM run.  [retry] overrides the DCM's retry/
    backoff/quarantine policy (fault-injection tests shrink the
    thresholds).  [sanitize] installs the lock-discipline sanitizer
    ({!Dcm.Sanitizer}) on the lock manager and every managed host's
    filesystem; it defaults to the [MOIRA_SANITIZE] environment
    variable.

    [replicas] (default 0) starts that many read-only replica servers
    on machines [MOIRA-REPLICA-<i>.MIT.EDU], each streaming the
    primary's journal (poll period [repl_poll_ms], default 1000 ms;
    [repl_retain] bounds the primary's entry retention so a lagging
    replica exercises snapshot catch-up).  Point clients at them with
    [Moira.Mr_client.set_replicas].

    Creation resets the global [Obs.default] registry, points its clock
    at the new engine, and wires every layer (network, Moira server,
    plan cache, DCM) to record there — so metrics, spans and the
    slow-query log for the whole world are in one place, readable
    through the [_get_server_statistics] family of Moira queries. *)

val obs : t -> Obs.t
(** The testbed's registry (the global [Obs.default]). *)

val lanes : t -> (string * Obs.t) list
(** The span lanes (same as the [lanes] field). *)

val trace_json : ?trace:string -> t -> string
(** All lanes stitched into one Chrome trace
    ({!Obs.merge_trace_json}); [?trace] restricts to one end-to-end
    trace — e.g. one committed write from client call through replica
    apply to serving-host install. *)

val client : t -> src:string -> Moira.Mr_client.t
(** An application-library handle on the given workstation. *)

val admin_client : t -> src:string -> Moira.Mr_client.t
(** A handle already connected to the Moira server and authenticated as
    the admin principal.
    @raise Failure if connection or authentication fails. *)

val user_client : t -> src:string -> login:string -> Moira.Mr_client.t
(** A connected handle authenticated as an ordinary user.
    @raise Failure if connection or authentication fails. *)

val run_minutes : t -> int -> unit
(** Advance the simulation by that many minutes, firing due events. *)

val run_hours : t -> int -> unit
(** Advance by hours. *)

val host : t -> string -> Netsim.Host.t
(** A host by machine name.  @raise Not_found if absent. *)

val replica_machine : int -> string
(** The machine name of the [i]th (0-based) replica. *)

val replica_machines : t -> string list
(** The machine names of every running replica. *)

val first_hesiod : t -> string * Hesiod.Hes_server.t
(** The first hesiod server (machine name, server). *)

val send_mail :
  t -> src:string -> sender:string -> rcpt:string -> body:string ->
  (int, Netsim.Net.failure) result
(** Submit a message to the campus mail hub; it routes with the
    Moira-generated aliases file.  Returns how many copies were
    delivered. *)

val managed_machines : t -> string list
(** Every machine the DCM pushes to: hesiod, NFS, mail hub, zephyr. *)

val installed_state : t -> (string * (string * string) list) list
(** The (path, contents) of each managed machine's files, sorted,
    excluding staging and revert leftovers ([/tmp/*],
    [*.moira_update], [*.moira_old]) — the state that must end
    byte-identical between a faulty run and a clean one once the fleet
    converges. *)

val journal_file : t -> Relation.Journal.t option
(** Parse the server daemon's on-disk journal file
    ([/site/sms/journal] on the Moira host) — the recovery source when
    the in-memory server state is gone. *)

val read_mail :
  t -> ws:string -> login:string ->
  (Pop.Pop_server.message list, Netsim.Net.failure) result
(** The [inc] flow: look the user's pobox up in hesiod from the
    workstation, then drain the mailbox on that post office. *)
