(** The archive format used for multi-file transfers: "only one file is
    transferred, although it may be a tar file containing many more"
    (paper section 5.9).  A simple counted-entry archive: each member is
    a name and contents. *)

val pack : (string * string) list -> string
(** Archive a list of (name, contents) members. *)

val packed_size : (string * string) list -> int
(** [String.length (pack members)], computed without packing. *)

val checksum : (string * string) list -> int
(** [Checksum.adler32 (pack members)], streamed member by member — the
    archive is never materialized.  Lets {!Update.push} run the whole
    manifest/delta exchange (and the EXEC confirm, which only carries
    the checksum) without a client-side full pack. *)

val pack_docs : (string * Sink.doc) list -> string
(** As {!pack} over chunked documents — one materialization, into a
    pre-sized buffer; the members themselves are never flattened. *)

val packed_size_docs : (string * Sink.doc) list -> int
(** As {!packed_size} over chunked documents. *)

val checksum_docs : (string * Sink.doc) list -> int
(** As {!checksum} over chunked documents: neither the members nor the
    archive are ever materialized. *)

val unpack : string -> ((string * string) list, string) result
(** Recover the members; [Error] describes the corruption. *)

val spans : string -> ((string * int * int) list, string) result
(** As {!unpack}, but each member's contents as an (offset, length)
    span of the archive instead of a copy. *)

val member : string -> string -> string option
(** [member archive name] extracts one member without unpacking the rest
    — the staged extraction of the execution phase ("only the ones that
    are needed are extracted one at a time"). *)
