(** The [attach] client (named in paper section 5.8.2 as the consumer of
    filsys.db): resolve a locker name through Hesiod and mount it on the
    workstation.

    Mounting is simulated by recording the mount in the workstation's
    [/etc/mtab] and creating the mount point; what matters here is the
    full consumption path — Moira database → DCM extract → hesiod file →
    hesiod resolution → parsed filesystem tuple — exactly the pipeline
    the paper's Figure 1 shows for "services which use information
    distributed from Moira". *)

type filsys = {
  fstype : string;  (** NFS or RVD. *)
  name : string;  (** Server-side directory or pack name. *)
  server : string;  (** Short server hostname (lower case). *)
  access : string;  (** Default access mode, r or w. *)
  mount : string;  (** Default client mount point. *)
}

type error =
  | Unknown_locker  (** Hesiod has no filsys entry of that name. *)
  | Bad_entry of string  (** The hesiod record did not parse. *)
  | Hesiod_unreachable of Netsim.Net.failure
  | Rvd_failed of Rvd.Rvd_server.spinup_error
      (** An RVD locker's spin-up was refused. *)

val error_to_string : error -> string
(** Render for diagnostics. *)

val attach :
  Testbed.t -> ws:string -> locker:string -> (filsys, error) result
(** Resolve [locker] via the testbed's first hesiod server and make it
    available on workstation [ws]: NFS lockers are recorded as mounts;
    RVD lockers are spun up on their server first (read-only unless the
    entry's default access is [w]), as the paper's attach did. *)

val attached : Testbed.t -> ws:string -> string list
(** Mount table lines currently recorded on the workstation. *)
