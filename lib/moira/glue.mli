(** The direct "glue" library (paper section 5.6): the same interface as
    the RPC application library, but calling the query engine in-process.
    Used by the DCM and the backup utilities, which run on the database
    host — it avoids RPC overhead and does not use Kerberos
    authentication (callers are privileged). *)

type t

val create : ?client:string -> mdb:Mdb.t -> registry:Query.registry -> unit -> t
(** A privileged direct handle.  [client] is recorded as modwith on
    changes (default ["dcm"]). *)

val query : t -> name:string -> string list -> (string list list, int) result
(** Run a query handle directly (no access checks, no network). *)

val access : t -> name:string -> string list -> int
(** Access check as the privileged caller (always allowed for known
    queries; still validates arity). *)

val mdb : t -> Mdb.t
(** The underlying database context. *)
