(** The discrete-event engine: a virtual clock (in seconds) and an ordered
    event queue.  This stands in for wall-clock time and cron in the real
    Athena deployment: DCM invocation intervals, update timeouts, and
    retry delays all run against this clock, making every scenario in the
    paper reproducible in milliseconds of real time. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

val create : ?seed:int -> ?start:int -> unit -> t
(** A fresh engine.  [start] is the initial clock value (default 0);
    [seed] (default 42) seeds the root RNG stream. *)

val now : t -> int
(** Current virtual time in milliseconds. *)

val now_sec : t -> int
(** Current virtual time in whole seconds — the "unix format time" stored
    in database fields like [dfgen] and [lasttry]. *)

val advance : t -> int -> unit
(** [advance t d] moves the clock forward by [d] ms without running queued
    events — used to account the cost of a synchronous operation (an RPC
    round-trip, a file transfer) from inside an event handler.  Events that
    become due as a result run when control returns to {!run_until}. *)

val clock : t -> unit -> int
(** The millisecond clock as a closure. *)

val clock_sec : t -> unit -> int
(** The second-granularity clock, for handing to [Relation.Db.create]. *)

val rng : t -> Rng.t
(** The engine's root RNG (use {!Rng.split} for subsystem streams). *)

val attach_obs : t -> Obs.t -> unit
(** Point the registry's clock at this engine's virtual clock and count
    event activity into it ([engine.events_scheduled],
    [engine.events_fired]).  The one wiring point that makes every
    metric and span in the registry sim-time-deterministic. *)

val schedule : t -> at:int -> string -> (unit -> unit) -> event_id
(** [schedule t ~at label f] queues [f] to run at absolute time [at] ms
    (clamped to [now] if in the past).  [label] appears in traces.
    Events at equal times run in scheduling order. *)

val after : t -> delay:int -> string -> (unit -> unit) -> event_id
(** Relative scheduling: [schedule ~at:(now + delay)]. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event (no-op if it already ran). *)

val every : t -> interval:int -> string -> (unit -> unit) -> event_id
(** A cron-style periodic task firing at [now + interval] and then every
    [interval] until cancelled.
    Returns the id of the *series*: {!cancel} stops future firings. *)

val run_until : t -> int -> unit
(** Run every event scheduled at time [<= limit], then set the clock to
    [limit]. *)

val run_for : t -> int -> unit
(** [run_for t d] is [run_until t (now t + d)]. *)

val pending : t -> int
(** Number of queued events. *)
