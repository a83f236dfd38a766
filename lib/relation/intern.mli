(** Process-wide hash-consing pool for row atoms.

    Repeated atoms — logins, machine names, list names, types, statuses —
    are stored once; every table row referencing them shares the same
    heap string and the same [Value.t] box.  {!Table.insert} and updates
    intern rows automatically, so most code never calls this module
    directly; the pool is exposed for the journal, for tests asserting
    physical sharing, and for the benchmarks' memory accounting. *)

val share : string -> string
(** The canonical copy of [s]: equal to [s], physically shared by every
    other [share]/[value] caller that presented the same contents. *)

val value : Value.t -> Value.t
(** The canonical box for [v].  [Str] goes through the string pool;
    small non-negative [Int]s and both [Bool]s map to preallocated
    boxes; other ints are returned unchanged (no allocation). *)

val row : Value.t array -> Value.t array
(** A fresh array whose cells are all canonical ({!value} applied
    pointwise).  This is what [Table] stores on insert/update. *)

val id : string -> int
(** Dense id of the canonical string, interning it if new.  Ids count
    up from 0 in first-seen order and stay stable. *)

val of_id : int -> string option
(** The string behind an id, [None] if the id was never issued. *)

type stats = {
  mutable distinct : int;  (** distinct strings currently pooled *)
  mutable bytes : int;  (** total bytes held by pooled strings *)
  mutable hits : int;  (** lookups answered from the pool *)
  mutable misses : int;  (** lookups that added a new string *)
}

val stats : stats
(** Live counters (never reset). *)
