(** A simulated host: a name, an up/down state, a virtual filesystem, a
    table of named services (RPC handlers), and scripted crash points for
    fault-injection tests. *)

type t

exception Crashed of string
(** Raised out of a service handler when a scripted crash point fires;
    the host is already marked down and its unflushed writes discarded. *)

type handler = src:string -> string -> string
(** A service handler: peer hostname and request payload to reply payload. *)

val create : string -> t
(** A new host, initially up, with an empty filesystem. *)

val name : t -> string
(** The hostname. *)

val fs : t -> Vfs.t
(** The host's filesystem. *)

val is_up : t -> bool
(** Whether the host is currently up. *)

val register : t -> service:string -> handler -> unit
(** Install (or replace) the handler for a named service until the next
    {!crash}. *)

val unregister : t -> service:string -> unit
(** Remove a service. *)

val lookup : t -> service:string -> handler option
(** Find a service handler. *)

val crash : t -> unit
(** Take the host down now: unflushed filesystem state is lost, and so
    is every registered service. *)

val boot : t -> unit
(** Bring the host back up and run its boot hooks (e.g. servers reloading
    their data files, per section 5.9 trouble recovery). *)

val on_boot : t -> (t -> unit) -> unit
(** Add a hook run on every {!boot}. *)

val serve : t -> service:string -> handler -> unit
(** Start a daemon: {!register} the handler now and again on every
    {!boot}, as a service started from the host's rc script comes back
    after a reboot. *)

val arm_crash : t -> point:string -> unit
(** Arm the named crash point: the next {!maybe_crash} naming it crashes
    the host.  Each arming fires once. *)

val maybe_crash : t -> point:string -> unit
(** If [point] is armed, disarm it, {!crash} the host and raise
    {!Crashed}.  Server code sprinkles these at the crash windows the
    paper analyses (between install and confirm, etc.). *)
