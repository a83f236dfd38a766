(** Chunked documents: generator output that never has to exist as one
    string.

    A {!doc} holds file bytes as an ordered run of bounded chunks.
    Generators append through a writer ({!t}); the packer, checksummer
    and patch encoder consume chunks in order.  The full string is
    materialized ({!to_string}) only at a transport boundary — the
    simulated wire or the spool — never as an intermediate. *)

type doc
(** Immutable chunked byte sequence. *)

val empty : doc

val of_string : string -> doc
(** Wrap an existing string as a single-chunk doc (no copy). *)

val length : doc -> int

val to_string : doc -> string
(** Materialize.  The one-chunk case returns the chunk itself. *)

val iter : doc -> (string -> unit) -> unit
(** Visit the chunks in byte order. *)

val concat : doc list -> doc
(** Concatenate by sharing the operands' chunks — no byte copies. *)

val get : doc -> int -> char
(** Byte at an absolute offset.  O(chunks); prefer {!iter} for scans. *)

val sub : doc -> int -> int -> string
(** [sub d pos len] as [String.sub] on the materialized bytes. *)

val common_prefix : doc -> doc -> int
(** Length of the longest common prefix, compared without
    materializing: a chunk both docs hold at the same offset is skipped
    by identity, and other bytes are compared 8 at a time. *)

val common_suffix : limit:int -> doc -> doc -> int
(** Length of the longest common suffix, capped at [limit] (callers cap
    it so prefix + suffix never overlap). *)

val equal : doc -> doc -> bool
(** Byte equality, chunk-boundary agnostic. *)

val checksum_memo : doc -> int
(** Cached whole-doc checksum; [0] means not computed yet.  The value's
    encoding is owned by {!Checksum} — other callers must treat it as
    opaque. *)

val set_checksum_memo : doc -> int -> unit
(** Record the doc's checksum.  Docs are immutable byte-wise, so the
    memo can never go stale; storing [0] is harmless (reads as unset). *)

(** {2 Writer} *)

type t
(** An append-only writer; transient memory is one chunk, not the
    file. *)

val create : ?hint:int -> unit -> t
(** [hint] sizes the initial buffer (clamped to the chunk size). *)

val add_string : t -> string -> unit
val add_char : t -> char -> unit

val add_doc : t -> doc -> unit
(** Append an existing doc chunk-wise. *)

val written : t -> int
(** Bytes appended so far. *)

val contents : t -> doc
(** The doc written so far.  Flushes the tail chunk; the writer remains
    usable, but callers conventionally treat this as the end. *)
