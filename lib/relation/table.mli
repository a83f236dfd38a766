(** A mutable relation: rows, optional hash indexes, and modification
    statistics (the paper's [tblstats] counters, section 6). *)

type t

type rowid = int
(** Stable row identifier, unique within a table for its lifetime. *)

type stats = {
  mutable appends : int;  (** Rows inserted since creation/clear. *)
  mutable updates : int;  (** Rows updated. *)
  mutable deletes : int;  (** Rows deleted. *)
  mutable modtime : int;  (** Clock at last modification. *)
  mutable del_time : int;  (** Clock at last deletion (0 if never).  Lets
      change detection see deletions, which leave no row behind to carry
      a modtime. *)
}

val create : ?indexed : string list -> clock:(unit -> int) -> Schema.t -> t
(** [create ~clock schema] makes an empty relation.  [indexed] columns get
    hash indexes consulted by {!select} for top-level equality conjuncts.
    [clock] supplies the current time for the stats' [modtime].

    @raise Not_found if an [indexed] column is not in [schema]. *)

val schema : t -> Schema.t
(** The table's schema. *)

val uid : t -> int
(** A process-unique identity for this table, assigned at {!create}.
    Stable for the table's lifetime; distinct across databases even for
    tables sharing a name.  Lets caches key derived structures (e.g. the
    membership closure) on the table they were computed from. *)

val insert : t -> Value.t array -> rowid
(** Append a row (type-checked against the schema).
    @raise Invalid_argument on arity or type mismatch. *)

val select : t -> Pred.t -> (rowid * Value.t array) list
(** Matching rows, ordered by ascending [rowid] (i.e. insertion order) for
    deterministic output.  Tuples are fresh copies: mutating them does not
    affect the table. *)

val select_one : t -> Pred.t -> (rowid * Value.t array) option
(** [Some row] iff exactly one row matches; [None] if zero or several.
    This implements the paper's pervasive "must match exactly one"
    argument checking. *)

val count : t -> Pred.t -> int
(** Number of matching rows. *)

val exists : t -> Pred.t -> bool
(** Whether any row matches. *)

val update : t -> Pred.t -> (Value.t array -> Value.t array) -> int
(** Replace each matching row by [f row]; returns the number updated.
    @raise Invalid_argument if [f] produces an ill-typed tuple. *)

val set_fields : t -> Pred.t -> (string * Value.t) list -> int
(** Convenience update overwriting the named fields of matching rows. *)

val delete : t -> Pred.t -> int
(** Remove matching rows; returns the number removed. *)

val get : t -> rowid -> Value.t array option
(** Fetch one row (a fresh copy) by id. *)

val cardinal : t -> int
(** Current number of rows. *)

val fold : t -> init:'a -> f:('a -> rowid -> Value.t array -> 'a) -> 'a
(** Fold over rows in rowid order. *)

val iter : t -> (rowid -> Value.t array -> unit) -> unit
(** Iterate rows in rowid order without copying them.  The arrays are
    the table's own storage: callers must neither mutate them nor
    change the table during the walk. *)

val stats : t -> stats
(** The live statistics record. *)

val col_upper_bound : t -> string -> int
(** Upper bound on every [Value.Int] ever stored in the named column
    ([min_int] if none yet).  Maintained in O(1) per write and never
    lowered, so for the modtime-style columns the DCM watches it answers
    "could any row's value exceed t0?" without a table scan — possibly
    over-approximating after deletions, which at worst triggers a
    spurious (idempotent) rebuild.
    @raise Not_found if [col] is not a column. *)

val change_cursor : t -> int
(** Position in the table's change log.  Pass to {!changes_since} later
    to learn which rows were touched in between. *)

val changes_since : t -> cursor:int -> rowid list option
(** [changes_since t ~cursor] is [Some ids] — the distinct rowids
    inserted, updated, or deleted since [cursor] was taken, in ascending
    order — or [None] when the bounded log has wrapped (or the table was
    {!clear}ed) and the delta is unknown, in which case the caller must
    fall back to a full scan.  A deleted rowid appears in the delta; its
    row is simply gone from the table. *)

val column_version : t -> string -> int option
(** Monotonic change counter for an indexed column: bumps on every
    insert and delete, and on updates that change that column's value —
    but not on updates that leave it alone.  [None] when the column is
    not indexed.  Callers memoizing a projection of specific columns can
    key it on their versions and survive unrelated-field updates. *)

val clear : t -> unit
(** Remove every row (counts it as deletions in the stats). *)

val field : t -> Value.t array -> string -> Value.t
(** [field t row col] projects a named column out of a tuple of this
    table.  @raise Not_found if [col] is not a column. *)

(** {2 Query plans}

    {!select}, {!select_one}, {!count}, {!exists}, {!update},
    {!set_fields} and {!delete} run through a plan built from the
    predicate's {!Pred.shape}: column names resolve to offsets once, and an access
    path — bucket probe, union of buckets, ordered range scan, prefix
    range, or full scan — is chosen from the shape.  Each table caches
    its plans by shape, so every call of a named query with any argument
    values reuses one plan.  The cache needs no invalidation: schemas are
    immutable and a plan reads the table's live indexes.  It holds a
    bounded number of plans and resets wholesale when full.  Hits and
    misses count on [plan.cache.hits] and [plan.cache.misses] in
    {!Obs.default}, and each plan run on one [plan.path.*] counter. *)

val explain : t -> Pred.t -> string
(** The access path a plan for this predicate takes, for tests and
    diagnostics, e.g. ["probe(eq(login))"], ["range(uid)"],
    ["prefix(login,\"jis\")"], ["scan"].  Does not touch the cache. *)

val reset_plans : t -> unit
(** Drop this table's cached plans, so the next query of each shape
    compiles afresh (benchmarks time cold plans with it). *)
