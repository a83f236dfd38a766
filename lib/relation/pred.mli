(** Row predicates for selects, updates and deletes.

    Predicates name columns symbolically and are compiled against a schema
    when evaluated, so the same predicate value can be built before the
    table exists (e.g. by the query catalogue). *)

type t =
  | True  (** Matches every row. *)
  | Eq of string * Value.t  (** Column equals value. *)
  | Glob of string * string  (** Column matches wildcard pattern. *)
  | And of t * t
  | Or of t * t
  | Not of t

val conj : t list -> t
(** Conjunction of a list (empty list is [True]). *)

val disj : t list -> t
(** Disjunction of a list (empty list is [Not True]). *)

val eq_str : string -> string -> t
(** [eq_str col s] — column equals string [s]. *)

val eq_int : string -> int -> t
(** [eq_int col i] — column equals integer [i]. *)

val eq_bool : string -> bool -> t
(** [eq_bool col b] — column equals boolean [b]. *)

val name_match : string -> string -> t
(** [name_match col arg] is the standard Moira name-argument semantics:
    a wildcard match if [arg] contains [*] or [?], an exact comparison
    otherwise.  Matching is case-sensitive: callers querying a column
    Moira stores upper-case (machine names) upper-case [arg] first. *)

val eval : Schema.t -> t -> Value.t array -> bool
(** Evaluate against one tuple.
    @raise Not_found if the predicate names a column absent from the
    schema. *)

(** {2 Shapes — prepared-statement skeletons}

    A shape is a predicate with its equality constants and glob patterns
    replaced by numbered parameter slots.  Two calls of the same named
    query with different arguments, patterns included, produce the same
    shape, so the planner can compile a shape once and reuse the plan
    for every argument vector (the plan cache in {!Table}), and the
    shapes a table sees are bounded by the code that builds them. *)

type shape =
  | S_true
  | S_eq of string * int  (** Column equals parameter slot. *)
  | S_glob of string * int  (** Column matches the pattern in a slot. *)
  | S_and of shape * shape
  | S_or of shape * shape
  | S_not of shape

val split : t -> shape * Value.t array
(** [split p] separates [p] into its shape and the parameter vector,
    slots numbered left to right.  [fill (fst (split p)) (snd (split p))
    = p]. *)

val fill : shape -> Value.t array -> t
(** Rebuild a predicate from a shape and parameters (inverse of
    {!split}).  @raise Invalid_argument if the vector is too short. *)

val indexable_eqs : t -> (string * Value.t) list
(** Equality conjuncts reachable from the root through [And] nodes only —
    the candidates an index scan may serve.  Sound to use only as a
    pre-filter: the full predicate must still be evaluated. *)

val pp : Format.formatter -> t -> unit
(** Debug printer. *)
