(** Parsing and in-memory form of the Hesiod BIND data files.

    Moira generates eleven [*.db] files per Hesiod server (paper section
    5.8.2).  Each non-comment line is either

    {v name HS UNSPECA "data" v}

    or

    {v name HS CNAME target v}

    where [name] is the dotted hesiod key (e.g. [babette.passwd]). *)

type record =
  | Unspeca of string  (** Literal record data. *)
  | Cname of string  (** Alias to another key. *)

type t
(** A loaded database: key to records (a key may carry several
    UNSPECA records, e.g. sloc entries). *)

val empty : t
(** No entries. *)

val parse : string -> t
(** Parse one file's contents.  Lines starting with [;] and blank lines
    are ignored; malformed lines are skipped (BIND is similarly
    forgiving).  [parse c = update empty ~old:"" c]. *)

val update : ?parsed:int ref -> t -> old:string -> string -> t
(** [update db ~old contents] equals [parse contents] when
    [db = parse old], parsing only the lines that differ, wherever they
    lie.  A merge walk pairs the two files' lines (matching bytes are
    compared 8 at a time, not parsed; of two differing lines the one
    that sorts first is changed), so for sorted files, as Moira's
    generators emit, the changed lines are exactly the edited ones; any
    order gives the same result, only more changed lines.  It drops the
    keys named by [old]'s changed lines and adds the records of
    [contents]'s, one fold per run of adjacent changed lines.  It
    parses the whole of [contents] instead when a touched key also has
    records outside the changed lines, or when the changed lines of
    both files together outweigh [contents] (the walk stops there).
    Adds to [parsed] the bytes handed to the line parser. *)

val lookup : t -> string -> record list
(** Raw records for a key ([] if absent). *)

val resolve_stacked : t list -> name:string -> ty:string -> string list
(** {!resolve} over a stack of per-file databases, in order: a key's
    records are the concatenation of its records in each. *)

val resolve : t -> name:string -> ty:string -> string list
(** Hesiod resolution of [name.ty]: follow CNAME chains (bounded, cycle
    safe) and return all UNSPECA data strings, in file order. *)

val format_unspeca : key:string -> string -> string
(** Render one UNSPECA line as the DCM generators emit it. *)

val format_cname : key:string -> string -> string
(** Render one CNAME line. *)

val size : t -> int
(** Number of keys. *)
