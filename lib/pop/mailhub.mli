(** The central mail hub (ATHENA.MIT.EDU): a sendmail stand-in that
    routes with the Moira-generated /usr/lib/aliases file.

    Routing (section 5.8.2): an address is expanded through the aliases
    file — mailing lists fan out to their members, a user's pobox line
    ([user: user@ATHENA-PO-2.LOCAL]) directs delivery to a post office,
    and addresses containing [@] of other domains are recorded as
    external.  Expansion is recursive (a list member may itself be a
    list) with cycle protection.

    The hub re-reads the aliases file on every message, so a DCM
    propagation takes effect immediately — matching the paper's
    operational model where sendmail reads the installed file. *)

type t

type delivery =
  | Local of string * string  (** Delivered to (po_machine, user). *)
  | External of string  (** Left the campus (full address). *)
  | Bounced of string  (** No alias and not a known address form. *)

val start :
  aliases_path:string ->
  po_of_short:(string -> string option) ->
  Netsim.Net.t ->
  Netsim.Host.t ->
  t
(** Run the hub on a host.  [aliases_path] is where the DCM installs the
    aliases file; [po_of_short] maps the short name in a [.LOCAL]
    address (e.g. ["ATHENA-PO-2"]) to the full post-office hostname.
    Registers the network service ["smtp"] accepting
    ["sender\nrcpt\nbody"]. *)

val log : t -> delivery list
(** Every delivery ever made, oldest first. *)

(** {1 Client side} *)

val send :
  Netsim.Net.t -> src:string -> hub:string -> sender:string ->
  rcpt:string -> body:string -> (int, Netsim.Net.failure) result
(** Submit a message to the hub; returns how many copies were
    delivered (local + external). *)
