(** File-transfer checksum (paper section 5.9, transfer phase: "the file
    transfer includes a checksum to insure data integrity").  Adler-32. *)

val adler32 : string -> int
(** The Adler-32 checksum of a string. *)

val adler32_doc : Sink.doc -> int
(** The checksum of a chunked document, streamed — equals
    [adler32 (Sink.to_string d)] without the materialization.  Memoized
    on the doc ({!Sink.checksum_memo}): the first call scans the bytes,
    later calls are O(1). *)

val to_hex : int -> string
(** Render as 8 hex digits. *)

val verify : data:string -> checksum:string -> bool
(** Does [data] hash to the hex [checksum]? *)

(** {2 Streaming}

    Adler-32 over a sequence of chunks, identical to one pass over their
    concatenation — so [Tarlike.checksum_sums] can checksum an archive
    that is never materialized. *)

type stream

val stream_start : unit -> stream
val stream_feed : stream -> string -> unit

val stream_feed_doc : stream -> Sink.doc -> unit
(** Feed a chunked document chunk by chunk. *)

val stream_absorb : stream -> int -> len:int -> unit
(** [stream_absorb st v ~len] folds a segment whose checksum [v] and
    length [len] are already known into the stream in O(1) (Adler-32
    combination) — as if the bytes had been fed, in O(1). *)

val stream_absorb_doc : stream -> Sink.doc -> unit
(** As {!stream_feed_doc}, but O(1) when the doc's checksum is already
    memoized (computing and memoizing it otherwise) — the doc's value
    folds in by combination instead of a byte scan. *)

val stream_value : stream -> int
(** The checksum of everything fed so far (the stream stays usable). *)

(** {2 Segment checksums}

    The checksum of a member the update server holds, kept as the
    [(length, Adler-32)] of each of its segments so that a patch costs
    the bytes it changes, not the member. *)

type t

val segment_size : int
(** The longest segment, a few KB.  A patch rescans at most one
    segment's worth of base bytes on each side of its middle. *)

val scan : (string * int * int) list -> t
(** The segments of the concatenation of the [(s, pos, len)] pieces,
    built by one scan. *)

val value : t -> int
(** The Adler-32 of the whole string. *)

val length : t -> int

val count : t -> int
(** The number of segments: below [2 * length t / segment_size + 1]
    after any sequence of {!splice}s. *)

val region :
  t -> base:string -> prefix:int -> suffix:int -> string * int * int -> t
(** [region t ~base ~prefix ~suffix middle]: the segments of the part
    of the patched member that a patch keeping [prefix] and [suffix]
    bytes of [base] (whose checksum is [t]) rewrites — the base's edge
    pieces out to the nearest segment boundaries around the replaced
    bytes, with [middle] between them, scanned once. *)

val splice : t -> prefix:int -> suffix:int -> t -> t
(** [splice t ~prefix ~suffix r]: the patched member's checksum, the
    base's segments outside the rewritten part with the {!region} [r]
    in its place; neighbouring small segments are merged.  O(segments),
    no byte is read. *)

val encode : t -> string
val decode : string -> t option
(** The segment list as text, for the staged file. *)
