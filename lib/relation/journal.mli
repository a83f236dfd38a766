(** The server's journal of successful database changes (section 5.2.2):
    the nightly ASCII dump bounds data loss to about a day; replaying the
    journal of changes made since the dump closes that gap.

    Entries are implicitly numbered 1, 2, 3, ... in append order — the
    sequence numbers the replication stream ({!Replicate}) ships to
    read-only replica servers.  {!clear} resets the numbering, so a
    primary serving replication must not clear its journal while
    replicas are subscribed. *)

type entry = {
  time : int;  (** Clock when the change committed. *)
  who : string;  (** Authenticated principal that made the change. *)
  client : string;
      (** Client program acting for the principal (modwith) — recorded
          so replaying an entry reproduces the audit stamps exactly. *)
  query : string;  (** Query-handle name (e.g. ["update_user_shell"]). *)
  ctx : string;
      (** Serialized trace context of the committing call ([""] = none):
          the stamp that lets replica apply and DCM install join the
          commit's end-to-end trace, and — with [time] — the freshness
          clock commit-to-serving lag is measured against. *)
  args : string list;  (** The query's arguments. *)
}

type t

val create : unit -> t
(** An empty journal. *)

val append : t -> entry -> unit
(** Record one successful change (and run any {!on_append} hooks). *)

val on_append : t -> (entry -> unit) -> unit
(** Add a hook run on every subsequent append — how the server daemon
    tees the journal to its on-disk file. *)

val entries : t -> entry list
(** All entries, oldest first. *)

val since : t -> int -> entry list
(** Entries with [time >= t0], oldest first — the replay set after
    restoring a dump taken at [t0]. *)

val length : t -> int
(** Number of entries (O(1)). *)

val head_seq : t -> int
(** Sequence number of the newest entry (= {!length}); 0 when empty. *)

val entries_from : t -> seq:int -> entry list
(** Entries with sequence number strictly greater than [seq], oldest
    first — the batch a replica at high-water [seq] still needs. *)

val to_lines : t -> string
(** Serialize, one entry per line in the backup escape format:
    [time:who:client:query:ctx:arg1:...:argN]. *)

val of_lines : string -> t
(** Parse back what {!to_lines} produced.  A malformed record (bad
    timestamp, short line, broken escape — a crash mid-append)
    truncates the journal to the last well-formed prefix, bumps the
    [journal.torn_tail] counter and logs a warning on the [journal]
    channel of [Obs.default]; everything after the first bad record is
    dropped. *)

val replay : t -> since:int -> f:(entry -> unit) -> int
(** Apply [f] to every entry at or after [since]; returns how many were
    replayed. *)
