(** The chaos harness: one seeded driver and one set of oracles for
    the paper's robustness claim (sections 5.7 and 5.9) — cron-driven
    DCM retries, with the update protocol's atomic and idempotent
    operations, bring every server to the current data whatever
    crashes and losses occur.

    A {!config} is plain data: a seed, a testbed shape, a workload and
    a fault schedule.  {!run} builds the testbed from the seed, drives
    the workload under the faults, lets the fleet settle, and records
    what it saw; {!check} holds that record to every invariant at once.
    The same config always gives the same run, so a violation replays
    from the seed and schedule its message names. *)

(** {1 Fault schedules} *)

(** A host, resolved against the testbed when the schedule is
    injected. *)
type target =
  | Managed of int  (** the [i]th of {!Testbed.managed_machines} *)
  | Replica of int  (** the [i]th read-only replica *)
  | Primary  (** the Moira machine *)

type fault =
  | Partition of target list  (** cut these hosts off from all others *)
  | Outage of target  (** crash the host, then reboot it *)

type timed = { fault : fault; at_min : int; for_min : int }
(** A fault starting [at_min] minutes into the fault phase and lasting
    [for_min] minutes. *)

type schedule = {
  drop : float;  (** request-loss rate on every call, all run long *)
  reply_drop : float;  (** reply-loss rate on every call, all run long *)
  timed : timed list;
  crash_point : (target * string) option;
      (** a crash point armed at the start of the fault phase; the host
          reboots an hour in if it crashed *)
  kill_primary : (int * int) option;
      (** [(k, m)]: the primary crashes 2.5 s after write [k] returns
          (mid-propagation to the replicas) and reboots [m] minutes
          later *)
  crash_draw : int option;  (** seed of a {!random_crashes} draw *)
}

val calm : schedule
(** No faults. *)

val random_crashes : seed:int -> schedule
(** {!calm} plus, for each server machine other than the Moira machine,
    a crash/reboot pair with probability 0.6: the crash 1 minute to 47
    hours into the fault phase, the reboot 10 to 180 minutes later.
    The draw is made from [seed] when the schedule is injected. *)

val inject : Testbed.t -> schedule -> unit
(** Start a schedule's faults on a testbed now: set the loss rates,
    queue the partitions, outages and crash draw, and arm the crash
    point.  {!run} does this itself; the primary kill is {!run}'s,
    since it follows a write. *)

(** {1 Runs} *)

type via =
  | Glue  (** the privileged direct handle: every write commits *)
  | Client
      (** an admin [Mr_client] pointed at the replicas, reading its own
          write back after each acknowledged one *)

type workload = {
  writes : int;
      (** shell writes; write [i] (from 1) sets login [i mod users] to
          [/bin/v<i>] *)
  every_min : int;  (** minutes from one write to the next *)
  via : via;
  reads : int;
      (** reads per write by a second, read-only client pointed at the
          replicas, spread over the gap to the next write *)
}

type config = {
  seed : int;
      (** seeds the population and the engine ([Population.small] uses
          7) *)
  replicas : int;
  scale : float;  (** population scale over [Population.small] *)
  workload : workload;
  schedule : schedule;
  replay : bool;  (** also rerun the config and compare telemetry *)
}

val unconverged : Testbed.t -> cutoff:int -> ((string * string) * string) list
(** The convergence oracle, sorted: [((service, machine), what)] for
    each enabled host of an enabled service with an update interval
    where the host has an error or has not succeeded, the service has a
    hard error or last checked for changes before [cutoff] (engine
    seconds), or the host lacks the service's newest generation. *)

type read = {
  login : string;
  version : int;  (** [N] of a [/bin/v<N>] shell; 0 for any other *)
  ryw : int option;
      (** [Some v]: the writer's read right after its write of [v] was
          acknowledged; [None]: the read-only client's *)
  during_kill : bool;  (** the primary was down *)
}

type observation = {
  label : string;  (** the seed and schedule, for messages *)
  unconverged : ((string * string) * string) list;
      (** {!unconverged} once settled, cut off when the last write
          returned *)
  installed : (string * (string * string) list) list;
      (** {!Testbed.installed_state} *)
  acked : (string * string) list;  (** acknowledged (login, shell) writes *)
  journal : (string * string) list;
      (** every shell write in the primary's on-disk journal *)
  primary_dump : string;
  replica_dumps : (string * string) list;
  reads : read list;  (** the client history, in order *)
  counters : (string * int) list;  (** the Moira machine's registry *)
  histograms : (string * Obs.summary) list;
  spans : Obs.span_info list;
      (** every span of every lane, gathered from the rings every six
          hours and at the end *)
  traces : string list;
      (** trace ids of the committed shell writes that carried one, in
          commit order *)
  fingerprint : string;
      (** with [config.replay], every lane's registry dump, then the
          stitched trace of the first of [traces] (all traces when there
          is none); [""] otherwise *)
}

type outcome = {
  config : config;
  observed : observation;
  fault_free : observation option;
      (** the config run with {!calm}, when writes go through {!Glue}:
          then every write commits at its set time, so the installed
          files must end the same *)
  rerun : observation option;  (** when [config.replay] *)
}

val run : config -> outcome
(** Build the testbed ([config.replicas] replicas polling every 60 s;
    they first sync for 3 minutes), inject the schedule, make the
    writes and reads, run until every scheduled fault has ended, then
    step 15 minutes at a time until the fleet settles — converged,
    replicas identical, every host up — or two days pass.  Each
    testbed resets [Obs.default], so the observation is taken before
    the next run starts. *)

val check : outcome -> string list
(** Every violated invariant, each message prefixed with the seed and
    schedule of the run it is about; [[]] when all hold.  The fault-free
    run is held to the same invariants as the faulty one:
    - the fleet converged: on every generated row the host has no
      error and succeeded, the service has no hard error and checked
      for changes after the last write, and the host holds the
      service's newest generation;
    - installed files are byte-identical to the fault-free run's;
    - every acknowledged write is in the journal;
    - every replica's dump is byte-identical to the primary's;
    - reads are monotonic per login, and each read-your-writes read
      sees at least the write before it;
    - [update.ops.sent = ok + retried + Σ failed.*];
    - every span's parent exists in some lane, parent chains end, an
      [update.op] hangs under a [dcm.push], and with client writes and
      replicas some committed write's trace reaches the client call,
      the server handler, a replica apply, a DCM push and a
      serving-host install;
    - a rerun's lane dumps and trace are byte-identical. *)
