(** Extraction helpers shared by the file generators. *)

val short_host : string -> string
(** Lower-case hostname up to the first dot ("CHARON.MIT.EDU" ->
    "charon"). *)

val users_table : Moira.Mdb.t -> Relation.Table.t
(** The users relation, resolved once so generators can hoist it out of
    their per-row loops. *)

val col :
  Relation.Table.t -> string -> Relation.Value.t array -> Relation.Value.t
(** [col tbl name] resolves the column position once and returns a cheap
    row projector — the hoisted replacement for per-row
    [Table.field]. *)

val active_users :
  Relation.Table.t -> (Relation.Value.t array -> unit) -> unit
(** Iterate the rows of a (users) table whose status is active. *)

val fingerprint : Moira.Mdb.t -> (string * string list) list -> string
(** [fingerprint mdb [(table, cols); ...]] digests the named columns'
    change counters (or the table's coarse stats, when a column is not
    indexed) into one equality-comparable string.  The keyed incremental
    builder uses it to detect that a part's auxiliary inputs moved and a
    row-grain splice would be unsound. *)

val grouplists_version : Moira.Mdb.t -> int
(** A version of the active unix groups' (gid, list_id, name)
    projection: it changes exactly when that projection's contents do
    (a list turning into or out of an active group list, or an active
    group list's gid or name changing), not on membership stamps. *)

type groups
(** Per-generation group-resolution context: the memoized membership
    closure plus a cache of each list's (name, gid) projection. *)

val groups : Moira.Mdb.t -> groups

val group_pairs : groups -> users_id:int -> login:string ->
  (string * int) list
(** The (group name, gid) pairs for a user's grplist/credentials entry:
    the user's own group (the active group list named after the login)
    first, then every other active unix group reachable from the user's
    memberships, sorted by gid. *)

val group_pairs_naive : Moira.Mdb.t -> users_id:int -> login:string ->
  (string * int) list
(** Reference implementation of {!group_pairs} using the naive ACL walk;
    kept for property tests and benchmarks. *)

val grplist_iter :
  Moira.Mdb.t ->
  (login:string -> own:string -> frags:string list -> unit) ->
  unit
(** Bulk {!group_pairs}: visit every active user with at least one
    group, in login order, with their rendered "name:gid" fragments —
    the own group (named after the login) apart, the rest in gid order —
    computed in one pass over the active group lists.  Generators emit
    straight into their output buffer from the callback. *)

val group_fragments :
  Moira.Mdb.t -> users_id:int -> login:string -> string * string list
(** One user's [(own, frags)] rendered "name:gid" fragments, guaranteed
    identical — order and tie-breaking included — to what
    {!grplist_iter} emits for that user.  The keyed incremental grplist
    builder renders single-user lines with this. *)

val id_name_map :
  Relation.Table.t -> id:string -> name:string -> string array
(** One-scan projection of an (int id, string name) pair of columns into
    a dense array indexed by id ("" = absent), replacing per-row indexed
    selects in render loops.  Memoized on the table's stats counters. *)

val name_of : string array -> int -> string option
(** Bounds-checked probe of an {!id_name_map} projection. *)

val emit : ?hint:int -> (Sink.t -> unit) -> Sink.doc
(** [emit f] runs [f] against a fresh sink and returns the document it
    wrote — the streaming replacement for building a [Buffer] and
    taking its contents.  [hint] sizes the initial buffer. *)

val sorted_lines : string list -> Sink.doc
(** Join sorted lines with newlines, adding a trailing newline (empty
    input yields the empty document). *)
