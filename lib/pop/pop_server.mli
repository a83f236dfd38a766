(** The post-office substrate: one POP server per post-office machine
    (ATHENA-PO-1, ATHENA-PO-2 in the paper), holding each assigned
    user's mailbox.

    Two network services are exposed:
    - ["pop-deliver"] — the mail hub drops a message into a local box;
    - ["pop"] — the user's client ([inc], [movemail]) lists and
      retrieves messages. *)

type message = {
  sender : string;  (** Originating principal or address. *)
  rcpt : string;  (** The local user the box belongs to. *)
  body : string;  (** Message text. *)
}

type t

val start : Netsim.Host.t -> t
(** Run a POP server on the host.  Mailboxes live in memory and are
    rebuilt empty on boot (period-appropriate: the paper's POs were
    drained frequently by clients). *)

val mailbox : t -> user:string -> message list
(** Current contents of a user's box, oldest first. *)

(** {1 Client side} *)

val retrieve :
  Netsim.Net.t -> src:string -> server:string -> user:string ->
  (message list, Netsim.Net.failure) result
(** Fetch (and remove) every message in the user's box on [server] —
    what [inc] does after finding the box through hesiod. *)
