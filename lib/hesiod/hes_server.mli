(** The Hesiod name server substrate.

    Lives on a simulated host; loads the eleven Moira-generated [*.db]
    files from that host's filesystem into memory at start and on every
    restart (the paper: "the server automatically loads the files from
    disk into memory when it is started"; Moira's install script kills
    and restarts it to pick up new data).  Answers lookups over the
    network service ["hesiod"] with a [name ty] request and one reply
    line per matching record. *)

type t

val start : dir:string -> Netsim.Host.t -> t
(** Start a server on the host, reading [dir^"/"^file] for each of the
    eleven section 5.8.2 basenames present (cluster.db, filsys.db,
    gid.db, group.db, grplist.db, passwd.db, pobox.db, printcap.db,
    service.db, sloc.db, uid.db).  Registers the ["hesiod"] network
    service and a boot hook that reloads the files. *)

val restart : t -> unit
(** Reload data files from disk (what Moira's install script triggers). *)

val resolve_local : t -> name:string -> ty:string -> string list
(** In-process lookup against the currently loaded data. *)

val loaded_keys : t -> int
(** Number of keys currently in memory. *)

val generation : t -> int
(** How many times the server has (re)loaded its files. *)

val parsed_bytes : t -> int
(** Bytes of file contents handed to the line parser since start, the
    loaded data brought up to date first.  A restart re-parses only the
    lines that changed since the last parse (old and new, with their
    line ends), however far apart they lie; a file whose changed lines
    outweigh it (a shuffled rewrite) is parsed whole, and an unchanged
    restart parses nothing. *)

(** {1 Client side} *)

val resolve :
  Netsim.Net.t -> src:string -> server:string -> name:string -> ty:string ->
  (string list, Netsim.Net.failure) result
(** A remote [hes_resolve]: ask the hesiod server on host [server]. *)
