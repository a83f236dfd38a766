(** The static analysis engine over [.cmt] typed ASTs: per-definition
    rules, effect propagation along the whole-program call graph, dead
    and internal exports, the static lock-order graph, and protocol
    exhaustiveness — the engine behind [moira_lint].  See the header of
    [deep.ml] for the design; [Deep_moira] binds it to this
    repository's tree. *)

type effect_ =
  | WallClock  (** [Unix.gettimeofday]/[Sys.time]/Gc measurement reads *)
  | GlobalRandom
      (** the global [Random] module ([Random.State] threads a seeded
          state and is exempt, [make_self_init] aside) *)
  | UnorderedIter
      (** a [Hashtbl.fold]/[iter] accumulating order-sensitively with no
          sort in the same definition *)
  | Io  (** stdout/stderr/channel/Vfs writes (informational) *)
  | TakesLock of string  (** acquires a lock of this class *)

val effect_name : effect_ -> string

(** What one expression shows, for the per-definition rules. *)
type site =
  | Swallow  (** a handler whose pattern discards the exception *)
  | Table_lit of string  (** a literal in a table position *)
  | Column_lit of string  (** a literal in a column position *)

(** Per-definition facts extracted from the typedtree.  One record per
    toplevel [let] (nested lets are attributed to their enclosing
    toplevel binding); [fn_name] is fully qualified
    (["Dcm.Manager.host_phase"]). *)
type fn = {
  fn_name : string;
  fn_unit : string;
  fn_file : string;
  fn_line : int;
  mutable fn_refs : (string * int) list;
  mutable fn_strings : (string * int) list;
  mutable fn_direct : (effect_ * int) list;
  mutable fn_acquires : (string * int) list;
  mutable fn_code_idx : int option;
  mutable fn_sites : (site * int) list;
}

type facts = (string, fn) Hashtbl.t

val create : unit -> facts
val add_fn : facts -> fn -> unit

val make_fn :
  name:string -> unit_name:string -> file:string -> line:int -> fn
(** A blank fact record (tests hand-build graphs with it). *)

val load_cmt : facts -> string -> unit
(** Load one [.cmt] file's implementation (interfaces are skipped). *)

val load_source : facts -> file:string -> string -> unit
(** Typecheck a source buffer in-process against the initial (stdlib
    and [unix]) environment and load it — fixture support for tests.
    @raise Typemod errors / syntax errors on bad fixtures. *)

val callees : facts -> fn -> string list
(** The definitions a definition references, resolved the way OCaml
    scopes them: under each enclosing module, innermost first, then as
    written.  Local module aliases are expanded at load time and a
    local variable names nothing; a value of a functor instance
    resolves to the instance's definition. *)

val refs_to : facts -> string -> string list

(** Every definition, ordered by name (deterministic iteration). *)
val sorted_fns : facts -> fn list
val transitive : facts -> string -> effect_ list
val entry_points : facts -> string list
(** Definitions no other definition in the graph references. *)

val chain : facts -> src:string -> dst:string -> string list option
(** Shortest call chain from [src] to [dst], inclusive. *)

type finding = {
  f_rule : string;
  f_file : string;
  f_line : int;
  f_msg : string;
  f_chain : string list;
}

(** Suppression callback: [rule] is the deep rule id, [kind] the
    sub-kind (the effect name, ["cycle"], ["op"], ...), [file]/[line]
    the site a [lint: allow] would have to cover. *)
type suppress = rule:string -> kind:string -> file:string -> line:int -> bool

val pp_finding : finding -> string

val sort_findings : finding list -> finding list
(** Deduplicated, ordered by file, line, rule and message. *)

val effect_findings : ?suppress:suppress -> facts -> finding list
(** [deep-effect]: one finding per (entry point, source definition,
    effect kind) triple for {!WallClock}/{!GlobalRandom}/
    {!UnorderedIter}, located at the direct site, carrying the call
    chain from the entry. *)

val rule_findings :
  ?suppress:suppress ->
  applies:(rule:string -> file:string -> bool) ->
  known:(site -> bool) ->
  facts ->
  finding list
(** [obj-magic], [printf-in-lib] (a stdout printer), [lock-protect] (each
    acquire of a definition that never names [Fun.protect]),
    [swallow-exn] and [schema-ref] (a literal [known] rejects), each
    where [applies] says the rule covers the definition's file. *)

val dead_findings : ?suppress:suppress -> facts -> lib:string -> finding list
(** [dead-export]: each definition whose file is under the [lib]
    prefix that no root reaches.  The roots are every definition
    outside [lib], every toplevel effect, every error-table binding
    ([fn_code_idx] set) and every definition [suppress] keeps. *)

val load_cmti : string -> fn list
(** The toplevel values one [.cmti] declares, as blank fact records
    named like the definitions that implement them. *)

val internal_findings : ?suppress:suppress -> facts -> fn list -> finding list
(** [internal-export]: each interface value (from {!load_cmti}) no
    definition outside its own unit names.  Error-table bindings
    ([fn_code_idx] set) are exempt. *)

type lock_edge = {
  le_from : string;
  le_to : string;
  le_why : string;
  le_file : string;
  le_line : int;
}

val lock_edges : facts -> lock_edge list
(** The static lock-order graph over key classes: an edge A -> B
    wherever a definition acquires class A and later (same definition
    or through a call at a later line) acquires class B.  Deliberately
    an over-approximation — soundness (containing every runtime edge)
    is what the sanitizer cross-check relies on. *)

val lock_findings : ?suppress:suppress -> facts -> finding list
(** [lock-order]: acquires whose key string cannot be classified
    statically, plus any cycle in {!lock_edges}. *)

val doc_has_cell : string -> string -> bool
(** Whether a markdown table in the given text has a cell equal to the
    value (cells are [|]-split and trimmed). *)

val proto_op_findings :
  ?suppress:suppress ->
  facts ->
  doc:string ->
  (string * int) list ->
  finding list
(** [proto-exhaustive] for numeric opcodes [(qualified name, value)]:
    each must be referenced from at least 2 distinct definitions (sender
    + dispatch arm) and appear as a cell in [doc]. *)

val proto_verb_findings :
  ?suppress:suppress ->
  facts ->
  doc:string ->
  unit_name:string ->
  string list ->
  finding list
(** Same for string verbs, matched as string literals inside
    [unit_name]'s definitions. *)

val err_codes : facts -> unit_name:string -> (string * int) list
(** The [let name = code <idx>] bindings of an error-table unit. *)

val proto_err_findings :
  ?suppress:suppress ->
  facts ->
  doc:string ->
  unit_name:string ->
  size:int ->
  unit ->
  finding list
(** Error-code coverage: indices unique, in range, gap-free up to
    [size], and each present in [doc]'s table. *)

val json_str : string -> string

val report_json :
  findings:finding list -> info:(string * string) list -> string
(** One JSON object: the findings array plus caller-supplied
    pre-rendered [info] fields. *)
