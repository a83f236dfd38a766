(* moira_lint — static analysis gate.

   Runs every rule of [Lint.Deep_moira] over the [.cmt] files of every
   build root (lib bin test bench examples perfbench) and the [.cmti]
   files of lib: the per-definition rules ([obj-magic], [swallow-exn],
   [lock-protect], [schema-ref], [printf-in-lib]), wall-clock,
   global-Random and hash-ordered iteration effects traced along the
   whole-program call graph, lib definitions nothing outside lib
   reaches ([dead-export]) and interface values no other unit names
   ([internal-export]), the static lock-order graph cross-checked
   against a simulated chaos day's runtime sanitizer, protocol
   exhaustiveness, and allow hygiene.  Exits nonzero listing
   file:line: rule on any finding.

   Run from the repository root after [dune build @check], which leaves
   the [.cmt] artifacts.  [--json PATH] also writes the machine-readable
   report; [--no-chaos] skips the simulated day (faster, but the
   soundness cross-check then trivially passes). *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec json_of = function
    | "--json" :: p :: _ -> Some p
    | _ :: rest -> json_of rest
    | [] -> None
  in
  let chaos = not (List.mem "--no-chaos" args) in
  if not (Sys.file_exists "_build/default") then begin
    prerr_endline
      "moira_lint: no _build/default (run from the repo root after `dune \
       build @check`)";
    exit 2
  end;
  let r = Lint.Deep_moira.run ~chaos () in
  (match json_of args with
  | Some path ->
      let oc = open_out path in
      output_string oc r.Lint.Deep_moira.r_json;
      close_out oc
  | None -> ());
  let edges (a, b) = a ^ " -> " ^ b in
  Printf.printf
    "moira_lint: %d definitions, %d entry points\n\
     static lock-order graph: %s\n\
     observed at runtime:     %s\n"
    r.Lint.Deep_moira.r_functions r.Lint.Deep_moira.r_entries
    (match r.Lint.Deep_moira.r_static_edges with
    | [] -> "(empty)"
    | es -> String.concat ", " (List.map edges es))
    (match r.Lint.Deep_moira.r_observed_edges with
    | [] -> if chaos then "(none)" else "(chaos day skipped)"
    | es -> String.concat ", " (List.map edges es));
  match r.Lint.Deep_moira.r_findings with
  | [] -> Printf.printf "moira_lint: clean\n"
  | fs ->
      List.iter (fun f -> print_endline (Lint.Deep.pp_finding f)) fs;
      Printf.printf "moira_lint: %d finding(s)\n" (List.length fs);
      exit 1
