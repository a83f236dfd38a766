(** The Moira server (paper section 5.4): a single process on the
    database machine servicing every client connection through the GDB
    RPC layer.  The database backend is started once, at daemon startup —
    the design point benchmarked against the per-connection spawning of
    Moira's predecessor Athenareg (experiment E3). *)

type t

(** Snapshot of the access-cache counters. *)
type cache_stats = {
  hits : int;  (** Access verdicts served from the cache. *)
  misses : int;  (** Access verdicts computed. *)
  invalidations : int;  (** Cache flushes (on any write). *)
}

val create :
  ?backend:Gdb.Server.backend_cost ->
  ?access_cache:bool ->
  ?extra_queries:Query.t list ->
  ?obs:Obs.t ->
  ?read_only:bool ->
  net:Netsim.Net.t ->
  host:Netsim.Host.t ->
  mdb:Mdb.t ->
  kdc:Krb.Kdc.t ->
  ?trigger_dcm:(unit -> unit) ->
  unit ->
  t
(** Start the server on [host]: registers the [moira] Kerberos service
    (reading its srvtab), builds the query catalogue, and begins
    accepting connections.  [backend] models the database backend
    startup cost (default: [Per_server 1500] ms, the one-time INGRES
    spawn).  [access_cache] (default off) enables the server-side
    caching of Access verdicts the paper anticipates in section 5.5;
    the cache is flushed whenever a side-effecting query commits.
    [extra_queries] adds handles beyond the standard catalogue (e.g.
    ones bound to a secondary database with [Catalog.bind_database]).
    [trigger_dcm] is invoked by the Trigger_DCM request.
    [read_only] (default false) makes the server refuse every
    side-effecting query with [Mr_err.read_only_replica] — the mode a
    replication replica runs in.

    Every Query request records a [query] span, a [query.handler_ms]
    histogram sample (engine time: pure handlers read as 0 ms, nested
    RPCs charge their simulated cost) and, past 1000 ms of handler
    time, a [slow_query] log entry — all into [obs], which
    defaults to the net's registry.  The [query] span joins the trace
    context the request carried (the GDB wire trailer), the slow-query
    entry is tagged with the trace id, and a committing query journals
    the span's own context — so a write's replica applies and DCM
    installs trace back to the client call that caused them. *)

val access_cache_stats : t -> cache_stats
(** Live counters of the access cache (zeros when disabled). *)

val connection_count : t -> int
(** Live client connections. *)

(** {1 Replication}

    The primary serves its change journal as a replication stream
    (service ["moira_repl"]); read-only replicas pull it, replay each
    committed query against their own database through the ordinary
    query path, and serve sequenced reads ([Protocol.op_query2]). *)

val serve_replication :
  ?retain:int ->
  t ->
  net:Netsim.Net.t ->
  host:Netsim.Host.t ->
  Relation.Replicate.primary
(** Register the replication stream on the primary's host.  [retain]
    bounds how far back entry batches are served (replicas further
    behind catch up from a full snapshot).  Each fetch returns at most
    512 entries. *)

type replica
(** A read-only replica: its own database, a server instance answering
    (sequenced) retrieval queries on it, and the puller streaming the
    primary's journal into it. *)

val create_replica :
  ?backend:Gdb.Server.backend_cost ->
  ?access_cache:bool ->
  ?obs:Obs.t ->
  ?trace_obs:Obs.t ->
  ?poll_ms:int ->
  ?boot_from_snapshot:bool ->
  net:Netsim.Net.t ->
  host:Netsim.Host.t ->
  primary:string ->
  kdc:Krb.Kdc.t ->
  unit ->
  replica
(** Start a replica on [host] streaming from the machine named
    [primary] (which must run {!serve_replication}), polling every
    [poll_ms] simulated milliseconds (default 1000).  Replay pins the
    replica's database clock to each entry's commit time, so restored
    and replayed rows — modtime stamps included — are byte-identical to
    the primary's.  Each apply records a [repl.apply] span parented on
    the journal entry's trace context, into [trace_obs] (default: the
    server's registry) — a per-host registry here gives the replica its
    own lane in {!Obs.merge_trace_json}. *)

val replica_mdb : replica -> Mdb.t
val replica_handle : replica -> Relation.Replicate.replica
