(** Typed field values for the relational engine.

    Moira stores integers (ids, uids, unix times, booleans-as-integers in
    the wire protocol) and strings.  We keep booleans distinct in the
    engine for clarity; the Moira query layer converts to the paper's
    0/non-zero convention at the protocol boundary. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool

(** Column types, used by schemas for checking. *)
type ctype = TInt | TStr | TBool

val ctype_of : t -> ctype
(** The type of a value. *)

val ctype_name : ctype -> string
(** Human-readable name of a column type. *)

val equal : t -> t -> bool
(** Structural equality. *)

val to_string : t -> string
(** Render for protocol transmission: ints in decimal, bools as [0]/[1],
    strings verbatim. *)

val of_string : ctype -> string -> t
(** Parse a protocol string back into a value of the given type.

    @raise Failure if an [TInt]/[TBool] field does not parse. *)

val int : t -> int
(** Project an [Int] (accepts [Bool] as 0/1).
    @raise Invalid_argument on a string. *)

val str : t -> string
(** Project a [Str].  @raise Invalid_argument otherwise. *)

val bool : t -> bool
(** Project a [Bool] (accepts [Int]: zero is false, non-zero true).
    @raise Invalid_argument on a string. *)

val pp : Format.formatter -> t -> unit
(** Debug printer. *)
