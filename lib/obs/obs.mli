(** Sim-time observability: a metrics registry (named counters, gauges,
    log-scale histograms with quantile summaries), structured spans
    recorded into a bounded ring buffer and exportable as Chrome
    [trace_event] JSON, and bounded log channels (the slow-query log).

    Zero dependencies; every timestamp comes from an injected clock.
    In the simulator that clock is [Sim.Engine.clock], so for a given
    seed two runs record byte-identical telemetry — wall time never
    leaks in.  Cheap enough to leave on: a counter bump is one [incr],
    a histogram observation one array increment.

    Metric names are dotted lowercase paths ([net.calls],
    [plan.cache.hits], [dcm.push.sent]); histogram names carry their
    unit as a suffix ([query.latency_ms], [net.call_bytes]). *)

type t
(** A registry.  Handles ({!Counter.counter} etc.) stay valid across
    {!reset} — resetting zeroes values in place, it never invalidates
    a handle, so modules may safely cache handles at top level. *)

val create : ?ring:int -> ?log_ring:int -> unit -> t
(** Fresh registry.  [ring] bounds the completed-span/instant event
    ring (default 4096); [log_ring] bounds the log-channel ring
    (default 1024).  When a ring is full the oldest entry is dropped. *)

val default : t
(** The process-global registry.  Everything inside one
    {!Workload.Testbed} records here (the testbed {!reset}s it and
    points its clock at the engine), which is what lets the
    [_get_server_statistics] family of Moira queries read telemetry
    without threading a handle through [Query.ctx]. *)

val reset : t -> unit
(** Zero every counter/gauge/histogram (handles stay valid), clear the
    span and log rings, drop open spans, and detach the clock. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the time source, in milliseconds.  Until one is installed
    the registry reads time as 0. *)

val now_ms : t -> int

val set_origin : t -> string -> unit
(** Label this registry (conventionally the lowercase host name).  The
    label prefixes every span uid, so contexts stay unambiguous when
    several hosts' registries are stitched by {!merge_trace_json}.
    Cleared by {!reset}. *)

module Counter : sig
  type counter

  val make : t -> string -> counter
  (** Find-or-create.  @raise Invalid_argument if [name] already names
      a gauge or histogram. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val get : counter -> int
end

module Gauge : sig
  type gauge

  val make : t -> string -> gauge
  val set : gauge -> int -> unit
  val add : gauge -> int -> unit
  val get : gauge -> int
end

module Histogram : sig
  type histogram

  val make : t -> string -> histogram

  val observe : histogram -> int -> unit
  (** Record a non-negative sample (negatives clamp to 0).  Buckets
      are exact below 64, then log-linear with 32 sub-buckets per
      power of two — relative quantile error is at most 1/32. *)

  val count : histogram -> int
  val sum : histogram -> int

  val quantile : histogram -> float -> int
  (** [quantile h 0.95] is the p95 as a bucket upper bound, clamped to
      the observed min/max.  0 when empty. *)
end

type summary = {
  count : int;
  sum : int;
  min : int;  (** 0 when empty. *)
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

(** {1 Spans, instants, trace contexts} *)

type span_id

type ctx = { trace_id : string; span_id : string }
(** A trace context: which end-to-end trace a span belongs to and the
    span's own uid, enough to parent a child span on another host.
    Serialized with {!ctx_to_string} to ride wire protocols (the GDB
    request trailer, journal entries, update ops). *)

val ctx_to_string : ctx -> string
(** ["<trace_id>/<span_id>"]. *)

val ctx_of_string : string -> ctx option
(** Inverse of {!ctx_to_string}; [None] on [""] or malformed input, so
    decoders can pass the wire field through untrusted. *)

val span_begin : t -> ?parent_ctx:ctx -> ?attrs:(string * string) list -> string -> span_id
(** Open a span at [now_ms].  With [?parent_ctx] (a context that
    arrived over the wire) the span joins that trace as a child of the
    remote span; otherwise its parent is the innermost span still open
    on this registry (spans need not close in LIFO order), and a span
    opened with no parent at all roots a fresh trace. *)

val span_end : t -> ?attrs:(string * string) list -> span_id -> unit
(** Close the span and commit it to the ring; extra [attrs] are
    appended.  Ending a span twice is a no-op. *)

val with_span :
  t -> ?parent_ctx:ctx -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Scoped {!span_begin}/{!span_end}; the span closes even on raise. *)

val span_ctx : span_id -> ctx
(** The context naming this span, for explicit propagation. *)

val current_ctx : t -> ctx option
(** Context of the innermost open span — what an outbound request
    should carry. *)

val instant : t -> ?attrs:(string * string) list -> string -> unit
(** A point event in the ring (exported as a trace [ph:"i"]). *)

type span_info = {
  sp_name : string;
  sp_start_ms : int;
  sp_dur_ms : int;
  sp_parent : string option;  (** Parent span's name, if any. *)
  sp_attrs : (string * string) list;
  sp_trace : string;  (** Trace id this span belongs to. *)
  sp_id : string;  (** This span's uid ([<origin>#<n>]). *)
  sp_parent_id : string option;  (** Parent span's uid, possibly remote. *)
}

val completed_spans : t -> span_info list
(** Spans still in the ring, oldest first.  A parent uid local to this
    registry that was evicted by ring overflow is clamped to the root
    ([sp_parent]/[sp_parent_id] become [None]); the evictions
    themselves are counted in the [obs.spans.dropped] counter. *)

(** {1 Chrome trace export} *)

type trace_ev = {
  ph : char;  (** ['B'], ['E'] or ['i']. *)
  ev_name : string;
  ts_us : int;
  ev_args : (string * string) list;
}

val trace_events : ?trace:string -> t -> trace_ev list
(** The ring rendered as a well-formed duration-event stream: B/E
    pairs balance, nest properly, and timestamps are non-decreasing
    (overlapping spans are clamped into their enclosing span; spans
    still open are closed at [now_ms]).  Instants follow, in time
    order.  Every ['B'] carries [trace]/[span] (and [parent]) args;
    [?trace] keeps only spans of that trace (and no instants). *)

val trace_json : ?trace:string -> t -> string
(** {!trace_events} as a Chrome [trace_event] JSON document
    ([{"traceEvents": [...]}]), timestamps in microseconds. *)

val merge_trace_json : ?trace:string -> (string * t) list -> string
(** Stitch several hosts' registries into one Chrome trace: each
    [(label, registry)] pair becomes a process lane (pid = position,
    named via [process_name] metadata), and parent links that cross
    lanes — contexts that travelled over a wire protocol — are drawn
    as flow arrows.  [?trace] restricts the export to one end-to-end
    trace, e.g. a single committed write from client call to
    serving-host install. *)

(** {1 Log channels} *)

type log_entry = {
  l_ts_ms : int;
  l_channel : string;
  l_msg : string;
  l_attrs : (string * string) list;
}

val log : t -> channel:string -> ?attrs:(string * string) list -> string -> unit
val logs : t -> ?channel:string -> unit -> log_entry list
(** Oldest first; [?channel] filters. *)

(** {1 Reading back} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * int) list
val histograms : t -> (string * summary) list

val find_counter : t -> string -> int option
val find_gauge : t -> string -> int option
val find_histogram : t -> string -> summary option

val dump : t -> string
(** Every metric, one per line, sorted — a deterministic fingerprint
    of a run ([counter net.calls 42], [histogram query.latency_ms
    count=...]). *)

val glob_match : string -> string -> bool
(** [glob_match pattern name]: [*] matches any run of characters and [?]
    exactly one, case-sensitively.  The one matcher behind every Moira
    pattern: the stats queries' filter, SLO metric patterns and
    [Relation.Glob.matches]. *)

(** {1 Data freshness}

    Per-host freshness gauges fed by replica apply and DCM install:
    [prop.host.<host>.last_commit_s] is the newest applied commit's
    sim time, [prop.host.<host>.staleness_s] is [now - last_commit_s].
    The SLO engine reads the staleness gauges with a [Value]
    objective. *)
module Freshness : sig
  val note_commit : t -> host:string -> commit_s:int -> unit
  (** Record that [host] now serves data as of commit time [commit_s]
      (seconds, sim time).  Monotonic: an older commit never moves the
      gauge backwards. *)

  val refresh : t -> unit
  (** Re-derive every staleness gauge from [now] — hosts that stopped
      applying keep growing stale.  Call before evaluating SLOs. *)
end

(** {1 Declarative SLOs}

    An objective names a metric glob, a statistic, a threshold and a
    window; {!Slo.evaluate} grades each objective red/yellow/green on
    demand.  Windows are computed from histogram snapshots taken at
    {!Slo.tick} (bucket deltas, exact counts), so evaluation is cheap
    and deterministic.  {!Slo.check} additionally routes breaches to a
    notify callback with incident dedup: one notification per breach
    episode, re-armed when the objective recovers. *)
module Slo : sig
  type stat =
    | P50
    | P95
    | P99
    | Max
    | Mean
    | Count  (** Observations in the window. *)
    | Value  (** Max of matching {e gauges} (no window). *)

  type op = Le | Ge

  type objective = {
    o_name : string;
    o_metric : string;  (** Glob over histogram (or gauge, for [Value]) names. *)
    o_stat : stat;
    o_op : op;  (** [Le]: values at or under the threshold meet the objective. *)
    o_threshold : int;
    o_window_ms : int;  (** 0 = all-time. *)
  }

  type verdict = Green | Yellow | Red
  (** [Red] = objective missed; [Yellow] = met but within 10% of the
      threshold (inclusive — exactly-at-threshold warns), or no data
      in the window; [Green] otherwise. *)

  type result = {
    r_objective : objective;
    r_value : int;
    r_samples : int;  (** Window observations (0 = no data), or matched gauges. *)
    r_verdict : verdict;
  }

  type slo

  val create : t -> slo
  val default : slo
  (** Over {!Obs.default}; reset by the testbed alongside it. *)

  val reset : slo -> unit
  (** Drop objectives, window snapshots, and open incidents. *)

  val add : slo -> objective -> unit

  val tick : slo -> unit
  (** Snapshot histogram state for window baselines.  Call
      periodically (the DCM cycle does); snapshots beyond the widest
      window are pruned, keeping one as the baseline. *)

  val evaluate : slo -> result list
  (** Grade every objective now, in [add] order. *)

  val check : slo -> notify:(string -> unit) -> result list
  (** {!evaluate}, plus breach alerting with incident dedup. *)

  val stat_name : stat -> string
  val op_name : op -> string
  val verdict_name : verdict -> string
end
