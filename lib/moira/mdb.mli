(** The Moira server's database context: the relational store plus the
    journal of successful changes, the service/host lock table used by
    the DCM, id allocation from the values relation's hints, and the
    string-interning table. *)

type t

val create : clock:(unit -> int) -> t
(** A fresh context over a bootstrapped database (see
    {!Schema_def.create_db}).  [clock] must tick in seconds ("unix format
    time"). *)

val db : t -> Relation.Db.t
(** The underlying database. *)

val journal : t -> Relation.Journal.t
(** The journal of successful updates. *)

val locks : t -> Relation.Lock.t
(** The DCM's service/host lock table. *)

val now : t -> int
(** Current time in seconds. *)

val table : t -> string -> Relation.Table.t
(** Relation by name.  @raise Not_found for an unknown relation. *)

(** {1 Values relation} *)

val get_value : t -> string -> int option
(** Read a variable from the values relation. *)

val set_value : t -> string -> int -> unit
(** Write (creating if necessary) a variable. *)

val alloc_id : t -> string -> int
(** [alloc_id t hint] returns the current hint value of variable [hint]
    (e.g. ["users_id"], ["uid"], ["gid"]) and increments it — the paper's
    "hints for the next ID number to assign". *)

(** {1 Strings relation} *)

val intern_string : t -> string -> int
(** Id of the given string in the strings relation, inserting if new. *)

val string_of_id : t -> int -> string option
(** The string with the given id. *)

(** {1 Alias-driven type checking} *)

val valid_type : t -> field:string -> string -> bool
(** Whether the alias relation has [(field, TYPE, value)] — the paper's
    data-driven validation of enumerated fields. *)

val type_values : t -> field:string -> string list
(** All legal values for a type-checked field. *)

(** {1 Audit trail} *)

val stamp : t -> who:string -> client:string -> prefix:string ->
  (string * Relation.Value.t) list
(** The three audit assignments [<prefix>modtime/modby/modwith] (empty
    prefix for the main trio) used when a query mutates a row. *)

val sync_tblstats : t -> unit
(** Refresh the tblstats relation's rows from the live per-table
    counters (called before dumps and by [get_all_table_stats]). *)
