(** The Moira database schema (paper section 6): every relation, its
    columns, and the initial contents (type-checking aliases, value
    hints, capability ACLs, per-table statistics rows). *)

val all : Relation.Schema.t list
(** Every relation schema, in creation order. *)

val indexed_columns : string -> string list
(** Hash-indexed columns for a relation name (lookup keys used by the
    query catalogue). *)

val create_db : clock:(unit -> int) -> Relation.Db.t
(** Create all relations (with indexes) in a fresh database and load the
    bootstrap rows: TYPE/TYPEDATA aliases, the values relation's id hints
    and flags ([dcm_enable], [def_quota], ...), and one tblstats row per
    relation.  Capability ACLs start empty (owner lists are installed by
    higher layers once lists exist). *)
