(** The menu package of paper section 5.6.3 ("a menu package used for
    some of the clients"): hierarchical keyword menus driving actions,
    the skeleton of the interactive admin programs.

    A menu is a titled list of entries; each entry is a command (keyword,
    one-line help, an action taking the rest of the input line as
    arguments) or a sub-menu.  {!run} reads lines, dispatches on the
    first word, prints what actions return, and understands the built-in
    keywords [?]/[help] (list the entries), [up]/[q] (leave this menu),
    and [quit] (leave every menu). *)

type t

type action = string list -> string list
(** A command body: arguments in, display lines out. *)

val command : key:string -> help:string -> action -> t -> t
(** Add a command entry (last addition wins on duplicate keys). *)

val submenu : key:string -> help:string -> t -> t -> t
(** [submenu ~key ~help child parent] hangs [child] under [parent]. *)

val create : title:string -> t
(** An empty menu. *)

val run :
  t -> input:(unit -> string option) -> output:(string -> unit) -> unit
(** Drive the menu: prompt with ["title> "], read one line per
    iteration ([None] = end of input, treated as [quit]), dispatch.
    Unknown keywords produce an error line rather than failing. *)

val run_channels : t -> in_channel -> out_channel -> unit
(** {!run} over channels (interactive use). *)
