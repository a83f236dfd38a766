(** The archive format used for multi-file transfers: "only one file is
    transferred, although it may be a tar file containing many more"
    (paper section 5.9).  A simple counted-entry archive: each member is
    a name and contents. *)

val pack : (string * string) list -> string
(** Archive a list of (name, contents) members. *)

val checksum_sums : (string * int * int) list -> int
(** [checksum_sums [(name, length, adler); ...]] is the Adler-32 of the
    archive of members with those names, lengths and Adler-32s, computed
    from them alone — the wire checksum of DELTA and EXEC, which the DCM
    and the update server both compute with it. *)

val checksum : (string * string) list -> int
(** [Checksum.adler32 (pack members)], member by member — the archive is
    never materialized. *)

val pack_docs : (string * Sink.doc) list -> string
(** As {!pack} over chunked documents — one materialization, into a
    pre-sized buffer; the members themselves are never flattened. *)

val packed_size_docs : (string * Sink.doc) list -> int
(** [String.length (pack_docs members)], computed without packing. *)

val checksum_docs : (string * Sink.doc) list -> int
(** As {!checksum} over chunked documents: neither the members nor the
    archive are ever materialized, and a member whose checksum is
    memoized costs O(1). *)

val unpack : string -> ((string * string) list, string) result
(** Recover the members; [Error] describes the corruption. *)

val spans : string -> ((string * int * int) list, string) result
(** As {!unpack}, but each member's contents as an (offset, length)
    span of the archive instead of a copy. *)

val member : string -> string -> string option
(** [member archive name] extracts one member without unpacking the rest
    — the staged extraction of the execution phase ("only the ones that
    are needed are extracted one at a time"). *)
