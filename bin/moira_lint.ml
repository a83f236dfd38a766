(* moira_lint — static analysis gate.

   Default mode runs the syntactic [Lint] rules over the tree
   ([obj-magic], [swallow-exn], [lock-protect], [schema-ref],
   [printf-in-lib] and allow hygiene); exit nonzero listing
   file:line:rule on any violation.  Usage: moira_lint [path ...]
   (defaults to lib bin test bench examples, resolved from the cwd).

   [--deep] runs the interprocedural pass instead ([Lint.Deep_moira])
   over the [.cmt] files of every build root (lib bin test bench
   examples perfbench): wall-clock, global-Random and hash-ordered
   iteration effects traced along the whole-program call graph, lib
   definitions nothing outside lib reaches ([dead-export]), the static
   lock-order graph cross-checked against a simulated chaos day's
   runtime sanitizer, and protocol exhaustiveness.  Requires [.cmt]
   artifacts — build with [dune build @check] first.  [--json PATH]
   also writes the machine-readable report; [--no-chaos] skips the
   simulated day (faster, but the soundness cross-check then trivially
   passes). *)

let run_syntactic roots =
  let roots =
    match roots with
    | [] -> List.filter Sys.file_exists Lint.default_roots
    | rs -> rs
  in
  if roots = [] then begin
    prerr_endline
      "moira_lint: no roots found (run from the repo root or pass paths)";
    exit 2
  end;
  let files = List.concat_map Lint.files_under roots in
  let violations = List.concat_map Lint.lint_file files in
  if violations = [] then
    Printf.printf "moira_lint: %d files clean\n" (List.length files)
  else begin
    List.iter (fun v -> print_endline (Lint.pp_violation v)) violations;
    Printf.printf "moira_lint: %d violation(s) in %d files\n"
      (List.length violations)
      (List.length
         (List.sort_uniq String.compare
            (List.map (fun v -> v.Lint.v_file) violations)));
    exit 1
  end

let run_deep ~json ~chaos =
  if not (Sys.file_exists "_build/default") then begin
    prerr_endline
      "moira_lint --deep: no _build/default (run from the repo root after \
       `dune build @check`)";
    exit 2
  end;
  let r = Lint.Deep_moira.run ~chaos () in
  (match json with
  | Some path ->
      let oc = open_out path in
      output_string oc r.Lint.Deep_moira.r_json;
      close_out oc
  | None -> ());
  let edges (a, b) = a ^ " -> " ^ b in
  Printf.printf
    "moira_lint --deep: %d definitions, %d entry points\n\
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
  | [] -> Printf.printf "moira_lint --deep: clean\n"
  | fs ->
      List.iter (fun f -> print_endline (Lint.Deep.pp_finding f)) fs;
      Printf.printf "moira_lint --deep: %d finding(s)\n" (List.length fs);
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--deep" args then begin
    let rec json_of = function
      | "--json" :: p :: _ -> Some p
      | _ :: rest -> json_of rest
      | [] -> None
    in
    run_deep ~json:(json_of args) ~chaos:(not (List.mem "--no-chaos" args))
  end
  else run_syntactic args
