(** The simulated Athena network.

    Synchronous request/reply over virtual links: a call charges latency
    to the engine clock (base round-trip plus a per-kilobyte transfer
    cost) and can fail the ways the paper's update protocol must survive —
    the peer host is down, the service is absent, the link times out, or
    the peer crashes mid-request.  Faults are injected deterministically
    from the engine RNG, in two layers: global rates that apply to every
    call, and per-link rates keyed by the (unordered) host pair.  Request
    loss and reply loss are distinct: a lost request never reaches the
    handler (at-most-once), while a lost reply means the handler DID run
    but the caller still sees {!Timeout} — the idempotence hazard any
    retrying caller must survive. *)

type t

(** Why a call failed. *)
type failure =
  | Host_down  (** Peer exists but is down (connection times out). *)
  | No_host  (** No such hostname (connection refused). *)
  | No_service  (** Host up, nothing listening on that service. *)
  | Timeout  (** Link-level loss or partition: request or reply vanished. *)
  | Remote_crash of string  (** Peer crashed mid-handler, at this point. *)

val failure_to_string : failure -> string
(** Human-readable failure description. *)

(** A point-in-time snapshot of the traffic counters ({!stats}). *)
type stats = {
  calls : int;  (** Total calls attempted. *)
  bytes : int;  (** Total payload bytes moved (both directions). *)
  failures : int;  (** Calls that returned an error. *)
  req_dropped : int;  (** Requests lost before the handler ran. *)
  reply_dropped : int;  (** Handler ran, reply lost. *)
  partitioned : int;  (** Calls cut by a partition. *)
  down : int;  (** Calls to a down host. *)
  crashed : int;  (** Handler crashed the peer mid-call. *)
  wasted_bytes : int;
      (** Bytes carried by calls that ended in an error (the wire cost of
          failure: lost requests, replies to nobody, retries' fuel). *)
}

val create : ?obs:Obs.t -> Sim.Engine.t -> t
(** A network on the given engine.  Latency model: each successful call
    advances the clock by 4 ms plus 1 ms per KiB of payload moved.  A
    lost message costs a full 30 s timeout before the caller sees
    {!Timeout} — the paper's "reasonable amount of time" guard.

    Traffic counters ([net.calls], [net.bytes], per-service
    [net.service.<svc>.*], drop/failure events) live in [obs]; by
    default each net gets a private registry clocked off [engine], so
    two nets never share counters unless handed the same registry. *)

val engine : t -> Sim.Engine.t
(** The engine this network runs on. *)

val obs : t -> Obs.t
(** The registry this net records into — shared by callers (the update
    protocol, the Moira client library) that want their telemetry in
    the same place. *)

val set_trace_calls : t -> bool -> unit
(** When on, every call also records [net.send]/[net.deliver] instant
    events in the trace ring (drop and failure events are always
    recorded).  Off by default: a busy run would otherwise evict the
    interesting spans from the bounded ring. *)

val add_host : t -> string -> Host.t
(** Create and register a host.
    @raise Invalid_argument on a duplicate name. *)

val host : t -> string -> Host.t
(** Look up a host.  @raise Not_found if absent. *)

val hosts : t -> Host.t list
(** All hosts, in registration order. *)

val call :
  t -> src:string -> dst:string -> service:string -> string ->
  (string, failure) result
(** One synchronous request/reply.  Charges latency, applies fault
    injection, dispatches to the destination host's service handler. *)

val set_drop_rate : t -> float -> unit
(** Global probability that a request is lost before reaching the handler
    (default 0).  Layered with the per-link drop rate. *)

val set_reply_drop_rate : t -> float -> unit
(** Global probability that a reply is lost after the handler ran
    (default 0).  Layered with the per-link reply-drop rate. *)

val set_link_faults :
  t ->
  a:string ->
  b:string ->
  ?drop:float ->
  ?reply_drop:float ->
  ?latency_ms:int ->
  unit ->
  unit
(** Set fault parameters for the (unordered) link between hosts [a] and
    [b]: request-drop probability, reply-drop probability, and extra
    one-way latency charged on each direction.  Omitted parameters keep
    their current values (all default 0).  Setting [latency_ms] records
    it in the [net.link.<a>:<b>.latency_ms] gauge.

    Every failed call also charges the per-link counters
    [net.link.<a>:<b>.drop.<kind>] (kinds: [request], [reply],
    [partition], [host_down], [crash]) and
    [net.link.<a>:<b>.wasted_bytes] — the link pair is unordered and
    lowercased, and the counters materialize lazily, only when a link
    actually fails. *)

val clear_link_faults : t -> unit
(** Forget all per-link fault state. *)

val set_partition : t -> string list list -> unit
(** Partition the network into the given groups.  Hosts in the same group
    can talk; hosts in different groups — or a listed host and an
    unlisted one — cannot (the caller sees {!Timeout} after the full
    timeout).  Hosts in no group can all talk to each other.  Replaces
    any previous partition. *)

val clear_partition : t -> unit
(** Heal all partitions. *)

val partition_window :
  t -> hosts:string list -> at:int -> duration_ms:int -> unit
(** Schedule a transient partition: at engine time [at] the listed hosts
    are isolated together (cut from everyone else), healing after
    [duration_ms].  Overlapping windows compose; healing removes only the
    hosts this window isolated. *)

val schedule_outage : t -> host:string -> at:int -> duration_ms:int -> unit
(** Schedule a crash/reboot cycle for [host]: crash at engine time [at]
    (unflushed filesystem state lost), boot at [at + duration_ms]
    (running the host's boot hooks, which re-register its services).
    Either event is a no-op if the host is already in the target state
    or was never registered.  Events run from the sim queue, so they
    cannot preempt a handler already running — arm a crash point for
    mid-call crashes. *)

val arm_reply_drop : t -> dst:string -> ?skip:int -> int -> unit
(** Deterministically drop the replies of the next [n] successful handler
    executions on [dst] (after ignoring the first [skip]).  For directed
    reply-loss idempotence tests; independent of the random rates. *)

val failure_slug : failure -> string
(** Short machine-readable failure kind ([timeout], [host_down], ...) —
    the [kind] attribute on [net.fail] events and the suffix on
    per-kind retry counters. *)

val stats : t -> stats
(** Snapshot of the traffic counters. *)

val reset_stats : t -> unit
(** Zero the counters. *)
