(** The {!Deep} engine bound to this repository: [.cmt] discovery under
    the dune build dir, the wire-protocol model (opcode values read off
    the linked libraries), PROTOCOL.md section lookup, [lint: allow]
    suppression via {!Lint}, and the simulated-chaos-day sanitizer
    cross-check.  Driven by [bin/moira_lint.ml --deep]. *)

type report = {
  r_findings : Deep.finding list;  (** everything that should gate CI *)
  r_functions : int;  (** definitions loaded into the fact table *)
  r_entries : int;  (** call-graph entry points *)
  r_static_edges : (string * string) list;
      (** the static lock-order graph, as (held, acquired) classes *)
  r_observed_edges : (string * string) list;
      (** what the runtime sanitizer witnessed during the chaos day *)
  r_unreferenced_errs : string list;
      (** error-code bindings nothing references (informational) *)
  r_json : string;  (** the machine-readable report *)
}

val run : ?chaos:bool -> unit -> report
(** Analyze every build root: [lib/], [bin/], [test/], [bench/],
    [examples/] and [perfbench/], from the repository root.
    [_build/default] must hold [.cmt] artifacts — build with
    [dune build @check] first — and the protocol model is checked
    against [PROTOCOL.md].  [chaos:false] skips the simulated day (the
    cross-check then trivially passes). *)

val suppress : Deep.facts -> Deep.suppress
(** The suppression {!run} applies: the per-file allowlist, keyed on
    the effect kind, then [lint: allow] comments in the facts' source
    files (read relative to the working directory). *)

val observed_edges_chaos : unit -> (string * string) list
(** Just the chaos-day run (exposed for the agreement test). *)
