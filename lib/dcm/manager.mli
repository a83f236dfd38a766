(** The Data Control Manager (paper section 5.7): invoked by cron at the
    minimum update interval, it scans the services table, regenerates
    data files for services whose interval has elapsed (only if the data
    actually changed), then scans the server/host tuples and pushes
    stale hosts with the update protocol — with the locking,
    inprogress-marking, soft/hard error recording and zephyr
    notification the paper specifies. *)

type gen_result =
  | Generated of int  (** Data files rebuilt; total bytes. *)
  | No_change  (** MR_NO_CHANGE: nothing relevant changed. *)
  | Not_due  (** Interval has not elapsed. *)
  | Gen_failed of string  (** Generator hard error. *)
  | Locked  (** Could not lock the service. *)

type host_result =
  | Updated of { files : int; bytes : int }
      (** Files installed and confirmed: member count and bytes actually
          exchanged on the wire (a delta push ships far less than the
          archive). *)
  | Up_to_date  (** Host already had the current files. *)
  | Soft_failed of string  (** Will be retried next invocation. *)
  | Hard_failed of string  (** hosterror set; operator notified. *)
  | Backed_off of int
      (** Stale, but inside its retry backoff window: skipped without
          touching the wire.  Payload is seconds until the next try. *)
  | Quarantined of string
      (** Repeated soft failures escalated to hosterror: excluded from
          future scans until an operator resets the error. *)

type service_report = {
  service : string;
  gen : gen_result;
  rebuilt : string list;
      (** Part names rebuilt this run (every part on a full rebuild;
          empty for monolithic generators and non-[Generated] runs). *)
  spliced : int;
      (** Parts reused unchanged from the previous generation — the
          file-grain MR_NO_CHANGE count. *)
  hosts : (string * host_result) list;  (** machine name, outcome. *)
}

type report = {
  at : int;  (** Engine seconds at the start of the run. *)
  disabled : bool;  (** True when /etc/nodcm or dcm_enable stopped it. *)
  services : service_report list;
  retries : int;
      (** Re-sent operations and re-attempted pushes during this run. *)
  notices_sent : int;
      (** Notifications delivered on at least one channel this run. *)
  notices_dropped : int;
      (** Notifications every configured channel failed to deliver. *)
}

val propagations : report -> int
(** Number of successful host updates in a report. *)

val files_sent : report -> int
(** Number of individual files delivered (archive members summed over
    successful host updates). *)

val bytes_sent : report -> int
(** Wire bytes exchanged over all successful host updates. *)

type t

type retry_policy = {
  op_attempts : int;
      (** Transport attempts per protocol operation within one push. *)
  push_attempts : int;
      (** Whole-push attempts per host within one DCM cycle. *)
  backoff_base_s : int;
      (** First across-cycle backoff after a failed cycle, seconds. *)
  backoff_max_s : int;  (** Backoff cap, seconds. *)
  backoff_jitter : float;
      (** Backoff is scaled by a seeded uniform factor in
          [1 ± backoff_jitter], de-synchronising host retries. *)
  quarantine_after : int;
      (** Consecutive failed cycles before hosterror quarantine;
          [0] disables escalation. *)
}

type sweep = {
  services_cleared : int;  (** [servers] rows whose inprogress was stuck. *)
  hosts_cleared : int;  (** [serverhosts] rows whose inprogress was stuck. *)
  locks_released : int;  (** Orphaned dcm-owned locks released. *)
}

val recovery_sweep : t -> sweep
(** Startup recovery after a DCM (or Moira machine) crash: clear stale
    [inprogress] flags in [servers] and [serverhosts] and release every
    lock still owned by ["dcm"].  A DCM that dies mid-run takes its work
    with it, so the flags and locks are necessarily stale; the next cycle
    redoes any half-finished push from the spool.  {!create} runs this
    automatically. *)

val standard_generators : Gen.t list
(** The four 1988-deployment generators: HESIOD, NFS, MAIL, ZEPHYR.
    Extend this list to add a managed service (see HACKING.md). *)

val check_generators : Gen.t list -> Moira.Check.finding list
(** The dcm-side half of the schema cross-checker: every watch must
    reference a real [Schema_def] table and int (modtime) columns, part
    names must be unique, and part watches must cover the service
    watches.  Empty means consistent; run over {!standard_generators}
    by [moira_cli check] and the test suite. *)

val create :
  net:Netsim.Net.t ->
  moira_host:string ->
  glue:Moira.Glue.t ->
  ?zephyr_to:string ->
  ?mail_via:string * string ->
  ?generators:Gen.t list ->
  ?retry:retry_policy ->
  ?obs:Obs.t ->
  ?slo:Obs.Slo.slo ->
  unit ->
  t
(** A DCM bound to the Moira host.  [zephyr_to] names the host running a
    zephyr server for failure notification (class MOIRA instance DCM);
    [mail_via] is [(hub_machine, recipient)] for the mail copy — the
    paper's hard failures send "a zephyrgram and mail".
    [generators] defaults to the four standard ones (HESIOD, NFS, MAIL,
    ZEPHYR).

    Generated data files are kept on the Moira host's filesystem under
    [/u1/sms/dcm/<SERVICE>/], so a *new* DCM created over the same host
    (a restarted daemon after a Moira crash, section 5.9 case C) finds
    the files of previous generations and can resume pushing stale
    hosts without regenerating — "crashes of the Moira machine will
    result in (at worst) delays in updates".

    Per-host retry/backoff/quarantine state is persisted into the
    serverhosts [value1]/[value2] columns ([value1] = consecutive soft
    failures, negated while a quarantine incident has been notified;
    [value2] = next-attempt engine seconds) and reloaded by [create],
    so a restarted DCM also resumes its backoff schedule instead of
    hammering every flapping host afresh.

    Telemetry goes to [obs] (default: the net's registry): a
    [dcm.cycle] → [dcm.service] → [dcm.generate]/[dcm.hosts] →
    [dcm.push] span tree, per-outcome [dcm.gen.*]/[dcm.host.*]
    counters, [dcm.retries], [dcm.notices.*], and a [dcm.notify] log
    channel.  The report fields are deltas of those same counters.

    Each successful push additionally records commit-to-serving lag:
    every journal commit the push newly lands on the host observes into
    [prop.commit_to_serving_ms] (and the per-pair
    [prop.<service>.<machine>.commit_to_serving_ms]), the host's
    freshness gauges advance, and the push's [dcm.push] span joins the
    newest covered commit's trace.  With [slo], every cycle also
    refreshes staleness, ticks the window snapshots, and routes SLO
    breaches through the same zephyr/mail notification path (one
    notice per breach episode). *)

val run : t -> report
(** One DCM invocation. *)

val reports : t -> report list
(** Every report so far, oldest first. *)

val last_output : t -> service:string -> Gen.output option
(** The most recently generated files for a service (kept, like the real
    DCM's on-disk data files, until regenerated). *)

val schedule : t -> Sim.Engine.t -> every_min:int -> Sim.Engine.event_id
(** Arrange cron-style invocation every [every_min] simulated minutes
    ("invoked regularly by cron at intervals which become the minimum
    update time for any service"). *)
