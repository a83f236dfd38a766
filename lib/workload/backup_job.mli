(** nightly.sh (paper section 5.2.2): a cron job that dumps every
    relation to ASCII on the Moira host and "maintains the last three
    backups on line", rotating [/site/sms/backup_3 <- _2 <- _1].  The
    journal is dumped alongside so a restore can replay past the dump. *)

val install : Testbed.t -> every_hours:int -> Sim.Engine.event_id
(** Schedule the job periodically (the paper runs it nightly): each run
    rotates the on-line backups and takes a fresh dump into backup_1. *)

val generations : Testbed.t -> int
(** How many backup generations are currently on line (0–3). *)

val latest_journal : Testbed.t -> Relation.Journal.t option
(** The journal dumped with backup_1. *)

val restore_latest : Testbed.t -> Moira.Mdb.t -> (unit, string) result
(** mrrestore: load backup_1 into a fresh database context. *)
