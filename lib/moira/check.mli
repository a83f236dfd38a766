(** Schema–query cross-checker: mechanically verify that every
    registered query handle's declared signature agrees with
    [Schema_def] and with what its handler actually produces (the paper
    section 7 invariant).  An empty finding list means the registry is
    internally consistent. *)

type finding = {
  c_rule : string;  (** e.g. ["short-shape"], ["output-arity"]. *)
  c_subject : string;  (** Query/table/capability the finding is about. *)
  c_detail : string;
}

val pp : finding -> string

val to_rows : finding list -> string list list
(** [[rule; subject; detail]] rows, for the [_check_integrity] query. *)

val static_queries : Query.t list -> finding list
(** Lexical and structural checks: name/short shape (shorts are exactly
    4 chars), name+short uniqueness in the shared registry namespace,
    retrieve-has-outputs / mutation-has-none, nonempty field names. *)

val probe_queries : Mdb.t -> Query.t list -> finding list
(** Run every retrieve handler once (privileged, ["*"] per declared
    input); report handlers that raise or that produce tuples whose
    width differs from the declared outputs.  Mutations are not run. *)

val capacls : Mdb.t -> Query.t list -> finding list
(** Every [capacls] capability row must name a registered query. *)

val watch_ref :
  subject:string -> table:string -> columns:string list -> finding list
(** Validate one DCM generator watch: the table exists in [Schema_def]
    and each watched column exists and is an int (modtime) column.  Used
    by [Dcm.Manager.check_generators]. *)

val registry : Mdb.t -> Query.registry -> finding list
