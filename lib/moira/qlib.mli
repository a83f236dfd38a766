(** Shared plumbing for query-handle implementations: argument parsing
    with the paper's error codes, row projection, uniqueness checks, and
    audit stamping. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** Result bind, for chaining validations. *)

val int_arg : string -> (int, int) result
(** Parse an integer argument ([Mr_err.integer] on failure). *)

val bool_arg : string -> (bool, int) result
(** The protocol's boolean convention: an integer, 0 = false. *)

val trilean_arg : string -> ([ `True | `False | `Dontcare ], int) result
(** TRUE / FALSE / DONTCARE for the qualified_get queries
    ([Mr_err.typ] on anything else). *)

val bool_str : bool -> string
(** Render a boolean the way the protocol expects ("0"/"1"). *)

val check_name : string -> (unit, int) result
(** [Mr_err.bad_char] unless the string is acceptable as an object
    name: nonempty, printable ASCII, no [:] (the dump delimiter), no
    whitespace, no wildcards. *)

val projector :
  Relation.Table.t -> string list -> Relation.Value.t array -> string list
(** [projector tbl cols] resolves the column offsets once and returns a
    closure rendering those columns of a row as protocol strings — use
    it outside the per-row loop of multi-row retrievals. *)

val project :
  Relation.Table.t -> string list -> Relation.Value.t array -> string list
(** Render the named columns of a row as protocol strings
    ([projector tbl cols row]; resolves names on every call). *)

val rows_or_no_match :
  (Relation.Table.rowid * Relation.Value.t array) list ->
  ((Relation.Table.rowid * Relation.Value.t array) list, int) result
(** [Mr_err.no_match] on an empty retrieval. *)

val exactly_one :
  err:int ->
  (Relation.Table.rowid * Relation.Value.t array) list ->
  (Relation.Value.t array, int) result
(** The paper's "must match exactly one" rule: [err] (e.g. [Mr_err.user])
    if zero or several rows matched. *)

val stamp_fields :
  Query.ctx -> ?prefix:string -> unit -> (string * Relation.Value.t) list
(** modtime/modby/modwith assignments for the executing context. *)

val set : string -> string -> string * Relation.Value.t
(** Field assignment with a string value. *)

val seti : string -> int -> string * Relation.Value.t
(** Field assignment with an int value. *)

val setb : string -> bool -> string * Relation.Value.t
(** Field assignment with a bool value. *)

val caller_id : Query.ctx -> int option
(** users_id of the authenticated caller, if any. *)

val caller_is : Query.ctx -> string -> bool
(** Whether the caller is exactly the given login (never true for the
    empty caller). *)
