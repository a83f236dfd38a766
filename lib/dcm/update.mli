(** The Moira-to-server update protocol (paper section 5.9).

    All updates are initiated by the DCM and built from atomic
    operations so that a reboot leaves a consistent server:

    - {b Transfer phase}: authenticate; send the (tar) data file to the
      recorded target path suffixed [.moira_update], with a checksum;
      send the installation instruction sequence; flush to disk.
    - {b Execution phase}: on a single command, the server runs the
      staged script — extracting members as needed and swapping files
      into place with atomic renames.
    - {b Confirm}: the exit status returns to the DCM, which records it.

    Crash points are exposed at each window the paper analyses
    ([xfer], [before_exec], [mid_install], [after_exec]) via
    {!Netsim.Host.arm_crash}.

    {b One transfer path.}  The data op is DELTA: one entry per member,
    [K] (the host already has it), [P] (a prefix/suffix patch against
    the host's member, carrying that member's checksum) or [F] (full
    contents).  A pushing DCM first asks for a MANIFEST of per-member
    Adler-32 checksums of the host's durable base,
    [target^".last.d/"]; a first push, or the fallback after a checksum
    mismatch, is simply a DELTA whose entries are all [F].  The server
    keeps each base member's checksum as segment checksums
    ({!Checksum.t}) and resolves each entry once — a kept member takes
    the base's segments, a full member is scanned once, a patch scans
    only its middle and the base bytes out to the nearest segment
    boundaries — verifies the whole-archive checksum, and stages a
    file listing every member's checksum and length, with the bytes of
    each full member and the patch itself for each patched one.
    Execution decodes that file once: each patch must still fit its
    base (the base checksum, and the spliced checksum against the
    staged one), is applied once, and the result goes to the install
    script and the base advance; section 5.9's atomicity analysis is
    unchanged.  Any disagreement (missing base, stale patch base,
    checksum mismatch) makes the server answer MR_UPDATE_CHECKSUM: at
    DELTA the DCM resends every member in full within the same push; at
    EXEC nothing is installed, and the next push sees the changed base
    in the manifest. *)

(** {1 Server side} *)

(** {1 Wire opcodes}

    One request number per atomic operation; PROTOCOL.md's update table
    documents each, and [moira_lint] checks both stay in sync
    with the dispatch below. *)

val op_script : int
val op_flush : int
val op_exec : int
val op_manifest : int
val op_delta : int

type server

type staged
(** The staged file as the execution phase read and decoded it: its
    path, and every member's name with the bytes (patches applied) of
    each member not kept from the base. *)

type script = staged:staged -> (unit, string) result
(** An installation instruction sequence: receives the staged file;
    performs the installs. *)

val serve : ?obs:Obs.t -> Netsim.Host.t -> server
(** Install the update service on a host.  It accepts only requests
    bearing the constant token ["krb"], the stand-in for the Kerberos
    mutual authentication of section 5.9.2; any other token is
    rejected.  [obs] (default {!Obs.default}) is the registry on which
    the server records its per-op install spans; giving each serving
    host its own registry puts it in its own lane of a merged cluster
    trace.  The server counts every byte it checksums in
    [update.server.scanned_bytes] on that registry. *)

val register_script : server -> name:string -> script -> unit
(** Make a named script available for execution on this host. *)

val install_files :
  Netsim.Host.t -> dir:string -> ?after:(unit -> unit) -> unit -> script
(** The standard install script: one member at a time, save the
    existing [dir/<name>] as [dir/<name>.moira_old], write the new
    contents (a kept member's come from the durable base) to
    [dir/<name>.moira_update], flush, and atomically rename it over
    [dir/<name>]; a member whose live file already holds its bytes is
    left alone.  Then remove the staged file and run [after] (e.g.
    restart the server to reload its files).  Calls the [mid_install]
    crash point after each member it swaps and [before_restart] before
    [after]. *)

val revert_files :
  Netsim.Host.t -> dir:string -> ?after:(unit -> unit) -> unit -> script
(** Execution-phase instruction 3 of section 5.9: "revert the file —
    identical to swapping in the new data file, but instead puts the old
    file back".  For every member named in the staged file whose
    [.moira_old] copy exists, atomically rename it back over the live
    file.  "May be useful in the case of an erroneous installation." *)

(** {1 Client side (the DCM)} *)

type failure =
  | Soft of int * string
      (** Expected, retryable: host down, timeout, checksum mismatch. *)
  | Hard of int * string
      (** Script failure or authentication refusal: operator attention. *)

type push_stats = {
  wire_bytes : int;
      (** Request and reply payload bytes exchanged during the push. *)
  archive_bytes : int;  (** Size of the full packed archive. *)
  members_full : int;  (** Members shipped with full contents. *)
  members_patched : int;  (** Members shipped as patches. *)
  members_kept : int;  (** Members the host already had (not resent). *)
  delta : bool;
      (** Whether any member was kept or patched against the host's
          base ([false] for an all-[F] transfer). *)
  op_retries : int;  (** Transport-level retries spent during the push. *)
}

val push :
  Netsim.Net.t -> src:string -> dst:string -> ?token:string ->
  ?base:(string * Sink.doc) list -> ?attempts:int ->
  ?parent_ctx:Obs.ctx ->
  target:string -> files:(string * Sink.doc) list -> script:string ->
  unit -> (push_stats, failure) result
(** Run the full protocol against host [dst]: transfer [files] to
    [target^".moira_update"] as member deltas against the host's
    durable base (all [F] when it has none), stage [script], flush,
    execute, confirm.  [base] is the previous generation's files (if
    the caller kept them), used only to compute patches; correctness
    never depends on it, since every patch carries its base checksum
    and the server verifies the whole-archive checksum.  [token]
    (default ["krb"], the one {!serve} accepts) is sent as every
    request's first argument.

    [attempts] (default 1) is the number of transport attempts per
    protocol operation: a call that fails at the network layer (timeout,
    lost reply, unreachable host) is re-sent up to [attempts - 1] more
    times before the push gives up with a [Soft] failure.  Every
    operation is idempotent under re-send — in particular the exec
    confirm carries the archive checksum, so a server that already
    installed the archive but whose reply was lost acknowledges the
    repeat instead of running the script twice.

    The push runs inside a [dcm.push] span on the net's registry;
    [parent_ctx] parents that span on an upstream trace (the newest
    commit the push serves), each transport attempt is a child
    [update.op] span with its outcome, and every op carries the push
    context on the wire so the serving host's install spans join the
    same trace. *)
