(** The grab-bag of routines the Moira library exports to servers and
    clients alongside the RPC calls (paper section 5.6.3): string
    utilities, flag conversion, a hash-table abstraction, and a simple
    queue — the menu package lives in {!Menu}. *)

val trim_whitespace : string -> string
(** Strip leading and trailing ASCII whitespace. *)

val split_words : string -> string list
(** Split on runs of whitespace, dropping empties. *)

val canonicalize_hostname : string -> string
(** Alias of {!Lookup.canon_host}: trim and upper-case. *)

(** {1 Flag conversion} — "convert between flags integer and
    human-readable string". *)

val user_status_to_string : int -> string
(** The five account statuses of section 6 (USERS.status). *)

val user_status_of_string : string -> int option
(** Inverse of {!user_status_to_string} (exact match). *)

val nfsphys_status_to_string : int -> string
(** Render the nfsphys status bit field ("student+faculty", ...). *)

(** {1 Hash table abstraction} — the C library's fixed-size string-keyed
    hash package. *)
module Hashq : sig
  type 'a t

  val create : int -> 'a t
  (** A table with the given bucket-count hint. *)

  val store : 'a t -> string -> 'a -> unit
  (** Insert or replace. *)

  val fetch : 'a t -> string -> 'a option
  (** Look up. *)

  val remove : 'a t -> string -> unit
  (** Delete (no-op if absent). *)

  val iter : 'a t -> (string -> 'a -> unit) -> unit
  (** Visit every binding. *)

  val length : 'a t -> int
  (** Number of bindings. *)
end

(** {1 Queue abstraction} — the simple FIFO used by the server. *)
module Fifo : sig
  type 'a t

  val create : unit -> 'a t
  (** An empty queue. *)

  val put : 'a t -> 'a -> unit
  (** Enqueue at the tail. *)

  val get : 'a t -> 'a option
  (** Dequeue from the head ([None] when empty). *)

  val peek : 'a t -> 'a option
  (** Head without removing. *)

  val length : 'a t -> int
  (** Number of queued elements. *)

  val is_empty : 'a t -> bool
  (** Whether the queue is empty. *)
end
