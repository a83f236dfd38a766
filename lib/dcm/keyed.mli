(** Row-grain incremental rebuilds for keyed map files.

    A keyed file is a sorted run of independent lines, each derived from
    one row of a source relation (the shape of passwd.db, pobox.db,
    grplist.db).  Given a {!spec} describing the bulk build and the
    per-row rendering, {!incr} yields a {!Gen.part}-compatible
    incremental builder: it consumes the source table's change log and
    re-renders only the changed rows' lines, keeping per-bucket cached
    docs and checksums so a steady-state generation costs O(changed rows
    + buckets) instead of O(rows) — and a file whose bytes did not
    change keeps its previous {!Sink.doc} physically, which the push
    manifest and the spool writer both exploit.

    A spec whose lines also depend on an auxiliary relation with its own
    delta names, through {!aux}, the source rows that delta touched;
    they are re-rendered beside the rows the change log reports.

    The output is always byte-identical to the full build: any delta the
    engine cannot apply faithfully triggers an internal full rebuild
    instead (counted in [dcm.keyed.fallback]).  That happens when:
    - the source table's change log wrapped or was cleared;
    - the {!aux} delta is unknown ([ax_rows] answers [None]);
    - the [sk_deps] fingerprint moved;
    - a line recorded for a row is missing from the file. *)

type spec = {
  sk_table : string;
      (** The relation whose rows drive the lines; its change log is the
          delta source. *)
  sk_files : string array;  (** Output file names, in output order. *)
  sk_full :
    Moira.Mdb.t ->
    emit:(rowid:int -> int -> string -> string -> unit) ->
    unit;
      (** Bulk build: call [emit ~rowid file_idx key line] for every
          line ([line] carries its newline).  Emission order is free —
          lines are sorted by [(key, line)] — but each row's own lines
          must come out in the same relative order [sk_row] uses. *)
  sk_row : Moira.Mdb.t -> rowid:int -> (int * string * string) list;
      (** The [(file_idx, key, line)] lines one row contributes now; []
          for deleted or filtered rows.  Must byte-match [sk_full]. *)
  sk_deps : Moira.Mdb.t -> string;
      (** Fingerprint of every input other than the source table's own
          rows and [sk_aux]; any change forces a full rebuild. *)
  sk_aux : aux option;
      (** An auxiliary delta whose touched rows are spliced too. *)
}

and aux = {
  ax_cursor : Moira.Mdb.t -> int;
      (** The auxiliary delta's current position. *)
  ax_rows : Moira.Mdb.t -> cursor:int -> int list option;
      (** Source-table rowids whose lines may have changed since
          [cursor] because of the auxiliary relation; [None] when that is
          unknown, which forces a full rebuild. *)
}

type state
(** The engine's persistent state: bucketed entries, per-row
    contributions, the change-log and auxiliary cursors, the deps
    fingerprint. *)

type Gen.pstate += Keyed_state of state

val incr : spec -> Moira.Glue.t -> Gen.pstate option -> Gen.output * Gen.pstate
(** An incremental builder for {!Gen.part}'s [?incr] slot.  The ordering
    invariant: the produced files list lines sorted by [(key, line)], so
    the spec's full build must produce the same order (true of
    [sorted_lines]-shaped files keyed by their line, and of login-keyed
    files emitted in login order).  A previous state is spliced only when
    it was built over the same table (by {!Relation.Table.uid}) for the
    same file names; any other state is replaced by a full build. *)
