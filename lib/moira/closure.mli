(** One-pass membership closure over the [members] relation.

    A single fold over [members] builds forward and reverse adjacency,
    condenses the list graph into strongly connected components
    (self-referential ACLs are legal, paper section 5.5), and
    precomputes the transitive USER set below — and the list set above —
    every component.  All of {!Acl.expand_users} / {!Acl.containing_lists}
    then answer from the closure in O(answer) instead of one BFS with one
    select per visited list, per query.

    {!get} memoizes the closure per members table and keeps it current
    from the table's change log, so back-to-back DCM extractions build it
    once and a USER-member edit costs O(affected components), not a
    rebuild. *)

type t

val get : Mdb.t -> t
(** The closure for [mdb]'s members table as of now.  Rows touched since
    the last call are applied as deltas when none of them is a LIST
    member (or a row rewritten in place): the direct and reverse edges
    change, and the user is added to, or re-derived for, the edited
    list's component and every component above it.  A LIST-member edit,
    a wrapped change log or a duplicated row rebuilds in full.  The
    counters [closure.build.full] and [closure.build.delta] on
    {!Obs.default} record which path each refresh took.

    A delta updates the previous value in place, so a closure must not
    be held across mutations of the table: call [get] again. *)

val change_cursor : Mdb.t -> int
(** The members change-log position {!get}'s closure reflects (after
    bringing it up to date).  Pass it to {!users_changed_since} later. *)

val users_changed_since : Mdb.t -> cursor:int -> int list option
(** [Some ids]: the users_id, ascending, of every USER whose containing
    lists may have changed since [cursor] — exactly the USER members of
    the rows the deltas touched.  [None] when the change is unknown (a
    full rebuild happened since, or the bounded log was trimmed past
    [cursor]); the caller must then assume every user changed. *)

val build : Mdb.t -> t
(** Always rebuild, bypassing the memo (for tests and benchmarks). *)

val user_ids_of_list : t -> list_id:int -> int list
(** users_id of every USER reachable from the list through any chain of
    sub-lists, sorted ascending.  Unknown lists expand to []. *)

val iter_users : t -> list_id:int -> (int -> unit) -> unit
(** [user_ids_of_list] without materializing the list: applies the
    function to each reachable users_id in ascending order. *)

val containing_lists : t -> mtype:string -> mid:int -> int list
(** Every list containing the member directly or transitively, sorted
    ascending — same contract as {!Acl.containing_lists}. *)

val direct_members : t -> list_id:int -> (string * int) list
(** The list's direct members in members-row (insertion) order, as
    (member_type, member_id) pairs. *)
