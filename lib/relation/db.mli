(** A database: a set of named relations sharing one clock. *)

type t

val create : clock:(unit -> int) -> t
(** An empty database whose tables stamp their stats with [clock]. *)

val now : t -> int
(** Shorthand for reading the clock. *)

val add_table : ?indexed:string list -> t -> Schema.t -> Table.t
(** Create a relation from a schema and register it under the schema name.
    @raise Invalid_argument if a relation of that name already exists. *)

val table : t -> string -> Table.t
(** Look up a relation by name.
    @raise Not_found if absent. *)

val table_opt : t -> string -> Table.t option
(** Like {!table} but returning an option. *)

val tables : t -> (string * Table.t) list
(** All relations in registration order. *)

val table_names : t -> string list
(** All relation names in registration order. *)
