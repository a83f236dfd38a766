(** Determinism/safety source linter (see the header of [lint.ml] for
    the rule catalogue and suppression syntax). *)

type violation = {
  v_file : string;
  v_line : int;
  v_rule : string;
  v_msg : string;
}

(** Lint an in-memory source buffer; [file] is used for reporting and
    for the per-file allowlists. *)
val lint_source : file:string -> string -> violation list

val lint_file : string -> violation list

(** ["lib"; "bin"; "test"; "bench"; "examples"] — the roots the driver
    scans when given no arguments. *)
val default_roots : string list

(** All [.ml] files under a path, skipping [_build] and dotdirs. *)
val files_under : string -> string list

val pp_violation : violation -> string

(** The interprocedural ([.cmt]-level) analysis engine and its binding
    to this repository — see [deep.mli] / [deep_moira.mli]. *)
module Deep : module type of Deep

module Deep_moira : module type of Deep_moira
