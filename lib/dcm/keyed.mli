(** Row-grain incremental rebuilds for keyed map files.

    A keyed file is a sorted run of independent lines, each derived from
    one row of a source relation (the shape of passwd.db, pobox.db,
    grplist.db).  The entry points are {!part}, which turns a {!spec}
    into a {!Gen.part}, and {!of_rows}, which makes a spec from one row
    renderer.  The part's full build is the spec's own; its incremental
    builder consumes the source table's change log and re-renders only
    the changed rows' lines, keeping per-bucket cached docs and
    checksums so a steady-state generation costs O(changed rows +
    buckets) instead of O(rows) — and a file whose bytes did not change
    keeps its previous {!Sink.doc} physically, which the push manifest
    and the spool writer both exploit.

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
          for deleted or filtered rows.  Must byte-match [sk_full].  A
          splice applies it to the database once and the result to each
          changed row, so it may resolve columns before taking [~rowid]. *)
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

val part : name:string -> watches:Gen.watch list -> spec -> Gen.part
(** The part that renders a keyed file set.  Its [pbuild] is the spec's
    full build; its [pincr] splices the changed rows into the previous
    generation's state.  The ordering invariant: the produced files list
    lines sorted by [(key, line)], so [pbuild]'s files are in that order
    too.  A previous state is spliced only when it was built over the
    same table (by {!Relation.Table.uid}) for the same file names; any
    other state is replaced by a full build.  Only [pincr]'s builds
    count on [dcm.keyed.full], [dcm.keyed.splice] and
    [dcm.keyed.fallback]. *)

val of_rows :
  table:string ->
  files:string array ->
  deps:(Moira.Mdb.t -> string) ->
  (Moira.Mdb.t -> Relation.Value.t array -> (int * string * string) list) ->
  spec
(** [of_rows ~table ~files ~deps render] is the spec of a file set whose
    lines each come from one row of [table] alone (plus the inputs
    [deps] fingerprints).  [render mdb] resolves its columns and memos
    once and returns the renderer of one row: its [(file_idx, key,
    line)] lines, [line] carrying its newline, [] for a row the files
    leave out.  The full build applies it to every row, the splice to
    each changed row.  No {!aux}. *)
