(** Wildcard ("glob") matching for query arguments.

    Moira's retrieval queries accept [*] (match any run of characters)
    and [?] (match any single character) in name arguments, in the style
    of INGRES pattern matching. *)

val is_pattern : string -> bool
(** [is_pattern s] is true when [s] contains an unescaped wildcard. *)

val matches : pattern:string -> string -> bool
(** [matches ~pattern s] tests [s] against [pattern].  [*] matches zero or
    more characters, [?] matches exactly one.  Matching is case-sensitive:
    machine names are stored upper-case, so their callers upper-case the
    pattern.  It is {!Obs.glob_match}, the one matcher the stats queries
    share. *)
