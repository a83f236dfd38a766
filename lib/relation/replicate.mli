(** The journal as a replication stream: read-only replicas pull
    committed changes from a primary over the simulated network, apply
    them through the ordinary journal-replay path, and catch up from a
    full snapshot when they boot fresh or fall behind the primary's
    retention window.

    Entries are implicitly numbered 1..N by journal position (see
    {!Journal.head_seq}); the protocol ships [(head, first, entries)]
    batches so a replica detects gaps ([first > applied + 1]) and falls
    back to snapshot catch-up.  All requests and replies travel as
    {!Backup.encode_row} rows joined with newlines, over the netsim
    service {!service_name}. *)

val service_name : string
(** ["moira_repl"], the netsim service both sides speak. *)

(** {1 Primary} *)

type primary

val serve_primary :
  ?retain:int ->
  net:Netsim.Net.t ->
  host:Netsim.Host.t ->
  journal:Journal.t ->
  snapshot:(unit -> (string * string) list) ->
  unit ->
  primary
(** Register the replication service on [host].  [snapshot] produces a
    full dump (typically {!Backup.dump}) served to replicas that boot
    fresh or fall behind.  [retain] bounds how far back FETCH is served:
    a replica more than [retain] entries behind the head is told to
    catch up from a snapshot instead (default: serve any suffix).  A
    FETCH reply carries at most 512 entries. *)

(** {1 Replica} *)

type replica

val replica :
  net:Netsim.Net.t ->
  self:string ->
  primary:string ->
  apply:(Journal.entry -> unit) ->
  install_snapshot:((string * string) list -> seq:int -> unit) ->
  unit ->
  replica
(** A puller bound to hostname [self], streaming from hostname
    [primary].  [apply] replays one committed entry into the replica's
    database; [install_snapshot] replaces the whole database with the
    dump and records that it reflects the journal through [seq].  A
    replica whose applied sequence is 0 against a primary with history
    restores a snapshot rather than replaying the entire journal. *)

val applied_seq : replica -> int
(** Highest journal sequence number applied locally. *)

val poll : replica -> unit
(** One pull round: subscribe if needed, then fetch batches until
    caught up with the head the primary reported, or a transport fault
    ends the round.  Gaps and retention misses trigger snapshot
    catch-up. *)

val start : replica -> Sim.Engine.t -> every_ms:int -> unit
(** Schedule a {!poll} every [every_ms] simulated milliseconds, each
    followed by a heartbeat that records replication lag (entries
    behind head) in the [repl.lag_entries] histogram. *)
