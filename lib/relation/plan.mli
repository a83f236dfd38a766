(** Cached compiled query plans.

    The Moira query server executes a fixed vocabulary of named queries
    (the paper's query handles, precompiled under INGRES).  This module
    exploits that fixity: a predicate's {!Pred.shape} — its structure
    with comparison constants abstracted into parameter slots — is
    compiled against a table once, and the plan is cached under
    [(Table.uid, shape)] so every later call with any argument values
    reuses it.  The drop-in [select]/[update]/... functions below are
    behaviourally identical to their {!Table} counterparts; they differ
    only in cost.

    Plans need no explicit invalidation: table uids are process-unique,
    schemas immutable, and the derived index views (sorted, case-folded)
    are rebuilt lazily from index version counters inside {!Table}, so
    cached plans survive inserts, updates, deletes, {!Table.clear} and
    backup restore while always reading current data. *)

type t
(** A compiled plan bound to its parameter vector, ready to run. *)

val compile : Table.t -> Pred.t -> t
(** Split the predicate into shape + parameters and fetch (or compile
    and cache) the shape's plan for this table. *)

val prepare : Table.t -> Pred.shape -> Table.compiled
(** Fetch or build the cached compiled plan for a shape, without
    binding parameters — for callers that split once and run many
    times. *)

val run_select : t -> (Table.rowid * Value.t array) list
val run_select_one : t -> (Table.rowid * Value.t array) option
val run_count : t -> int
val run_exists : t -> bool

(** {2 Drop-in cached equivalents of the [Table] operations} *)

val select : Table.t -> Pred.t -> (Table.rowid * Value.t array) list
val select_one : Table.t -> Pred.t -> (Table.rowid * Value.t array) option
val count : Table.t -> Pred.t -> int
val exists : Table.t -> Pred.t -> bool
val update : Table.t -> Pred.t -> (Value.t array -> Value.t array) -> int
val set_fields : Table.t -> Pred.t -> (string * Value.t) list -> int
val delete : Table.t -> Pred.t -> int

(** {2 Cache control and observability} *)

val cache_stats : unit -> int * int * int
(** [(hits, misses, size)] since the last {!reset_cache}. *)

val reset_cache : unit -> unit
(** Drop every cached plan and zero the counters (benchmarks, tests). *)
