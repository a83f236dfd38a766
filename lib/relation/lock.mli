(** Shared/exclusive advisory locks keyed by name.

    The DCM locks services and hosts during scans (paper section 5.7.1):
    exclusive while generating or updating, shared while hosts of a
    non-replicated service are walked.  The simulation is single-threaded,
    so acquisition either succeeds immediately or reports a conflict. *)

type t
(** A lock manager (one per database). *)

type mode = Shared | Exclusive

type event =
  | Double_acquire of { key : string; owner : string }
      (** An owner re-acquired a key it already holds.  Legal (the mode
          rules still apply) but in this codebase always a discipline
          bug: critical sections do not nest. *)
  | Release_unheld of { key : string; owner : string }
      (** A release by someone who holds no lock on the key — silently a
          no-op, which is exactly why it hides bugs. *)
  | Acquired of { key : string; owner : string; held : string list }
      (** A successful acquisition; [held] is every {e other} key the
          owner already held, sorted.  Not a violation — the sanitizer
          folds these into the observed lock-order graph that
          [moira_lint] cross-checks against the static one. *)

val set_monitor : t -> (event -> unit) option -> unit
(** Install (or clear) a discipline monitor.  Used by the opt-in
    [Dcm.Sanitizer]; [None] by default, costing nothing. *)

val create : unit -> t
(** An empty lock table. *)

val acquire : t -> key:string -> owner:string -> mode -> bool
(** Try to take the lock on [key] for [owner].  Rules: any number of
    [Shared] holders may coexist; [Exclusive] requires no other holder.
    An owner may re-acquire a key it already holds iff the mode does not
    strengthen a lock others also hold.  Returns [false] on conflict. *)

val release : t -> key:string -> owner:string -> unit
(** Drop [owner]'s hold on [key] (no-op if not held). *)

val owned : t -> owner:string -> string list
(** Every key on which [owner] currently holds a lock. *)

val release_all : t -> owner:string -> unit
(** Drop every lock held by [owner] — crash cleanup. *)

val held : t -> key:string -> bool
(** Whether anyone holds [key]. *)

val keys : t -> string list
(** Every key someone currently holds, sorted — for end-of-run
    quiescence checks. *)
