(** The NFS generator (paper section 5.8.2): per-server credentials,
    per-partition quotas and directories files.

    Which credentials file a server receives is controlled by the
    [value3] field of its serverhosts row: a list name restricts the
    credentials to that list's (recursive) membership; blank means all
    active users. *)

val generator : Gen.t
(** service "NFS". *)
