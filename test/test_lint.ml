(* The linter's own tests: a known-bad fixture snippet per rule, the
   matching clean variant, and the suppression machinery.  Fixtures are
   linted in memory under a lib/ path so every rule (including
   schema-ref, which is scoped to lib/ and bin/) applies. *)

let lib_file = "lib/moira/q_fixture.ml"

(* Build an allow comment without this test file ever containing the
   literal marker (the scanner is line-based and would otherwise read
   the fixture text inside this very file). *)
let allow rule reason = "(*" ^ " lint: allow " ^ rule ^ " -- " ^ reason ^ " *)"

let rules_of ?(file = lib_file) src =
  List.map (fun v -> v.Lint.v_rule) (Lint.lint_source ~file src)

let check_rules what expected src =
  Alcotest.(check (list string)) what expected (rules_of src)

let test_obj_magic () =
  check_rules "Obj.magic flagged" [ "obj-magic" ] "let y = Obj.magic x";
  check_rules "Obj.repr not flagged" [] "let y = Obj.repr x"

let test_swallow_exn () =
  check_rules "wildcard handler flagged" [ "swallow-exn" ]
    "let v = try f () with _ -> 0";
  check_rules "named wildcard flagged" [ "swallow-exn" ]
    "let v = try f () with _e -> 0";
  check_rules "typed handler clean" []
    "let v = try f () with Not_found -> 0";
  check_rules "bound exception clean" []
    "let v = try f () with e -> log e; 0"

let test_lock_protect () =
  check_rules "bare acquire flagged" [ "lock-protect" ]
    "let f l = ignore (Lock.acquire l ~key:\"k\" ~owner:\"o\" Lock.Exclusive)";
  check_rules "protected acquire clean" []
    "let f l =\n\
    \  if Lock.acquire l ~key:\"k\" ~owner:\"o\" Lock.Exclusive then\n\
    \    Fun.protect\n\
    \      ~finally:(fun () -> Lock.release l ~key:\"k\" ~owner:\"o\")\n\
    \      run"

let test_schema_ref () =
  check_rules "unknown column flagged" [ "schema-ref" ]
    "let p = Pred.eq_str \"nosuch_column\" \"v\"";
  check_rules "known column clean" [] "let p = Pred.eq_str \"login\" \"v\"";
  check_rules "computed column skipped" []
    "let p = Pred.eq_str (prefix ^ \"_type\") \"LIST\"";
  check_rules "unknown table flagged" [ "schema-ref" ]
    "let t = Mdb.table mdb \"nosuch_table\"";
  check_rules "known table clean" [] "let t = Mdb.table mdb \"users\"";
  check_rules "watch column flagged" [ "schema-ref" ]
    "let w = Gen.watch ~columns:[ \"nosuch\" ] \"users\"";
  (* tests may build ad-hoc relations: the rule is scoped out there *)
  Alcotest.(check (list string))
    "schema-ref off under test/" []
    (rules_of ~file:"test/test_fixture.ml" "let p = Pred.eq_str \"k\" \"v\"")

let test_printf_in_lib () =
  check_rules "print_endline flagged" [ "printf-in-lib" ]
    "let () = print_endline \"hi\"";
  check_rules "Printf.printf flagged" [ "printf-in-lib" ]
    "let () = Printf.printf \"%d\" 3";
  check_rules "Format.printf flagged" [ "printf-in-lib" ]
    "let () = Format.printf \"%d\" 3";
  check_rules "stderr clean" [] "let () = prerr_endline \"hi\"";
  check_rules "Printf.sprintf clean" [] "let s = Printf.sprintf \"%d\" 3";
  (* the rule is scoped to lib/: drivers own their stdout *)
  Alcotest.(check (list string))
    "bin/ exempt" []
    (rules_of ~file:"bin/moira_cli.ml" "let () = print_endline \"hi\"");
  Alcotest.(check (list string))
    "suppressible" []
    (rules_of
       ("let () = print_endline \"hi\"  "
       ^ allow "printf-in-lib" "fixture prints"))

let test_suppression () =
  Alcotest.(check (list string))
    "eol annotation suppresses" []
    (rules_of ("let y = Obj.magic x  " ^ allow "obj-magic" "fixture needs it"));
  Alcotest.(check (list string))
    "solo line above suppresses" []
    (rules_of (allow "obj-magic" "fixture needs it" ^ "\nlet y = Obj.magic x"));
  Alcotest.(check (list string))
    "annotation for another rule does not suppress"
    [ "obj-magic"; "unused-allow" ]
    (rules_of ("let y = Obj.magic x  " ^ allow "swallow-exn" "wrong rule"))

let test_allow_hygiene () =
  Alcotest.(check (list string))
    "stale annotation reported" [ "unused-allow" ]
    (rules_of (allow "obj-magic" "nothing here anymore" ^ "\nlet x = 1"));
  Alcotest.(check (list string))
    "missing reason rejected" [ "bad-allow"; "obj-magic" ]
    (rules_of ("let y = Obj.magic x  " ^ "(*" ^ " lint: allow obj-magic *)"));
  Alcotest.(check (list string))
    "unknown rule rejected" [ "bad-allow"; "obj-magic" ]
    (rules_of ("let y = Obj.magic x  " ^ allow "no-such-rule" "why"));
  (* the syntactic effect rules are retired in favour of deep-effect:
     an allow still naming one is malformed, not silently inert *)
  List.iter
    (fun retired ->
      Alcotest.(check (list string))
        (retired ^ " is no longer a rule") [ "bad-allow" ]
        (rules_of (allow retired "old annotation" ^ "\nlet x = 1")))
    [ "wall-clock"; "global-random"; "unsorted-fold" ];
  (* deep-rule allows validate here but their use-tracking belongs to
     the deep pass: never reported stale by the syntactic one *)
  Alcotest.(check (list string))
    "deep-rule allow left for the deep pass" []
    (rules_of
       (allow "deep-effect" "verified by moira_lint --deep" ^ "\nlet x = 1"))

let test_repo_is_clean () =
  (* the acceptance criterion, run from the repo root by dune *)
  let files = List.concat_map Lint.files_under [ "../lib"; "../bin" ] in
  Alcotest.(check bool) "some files found" true (List.length files > 50);
  let violations = List.concat_map Lint.lint_file files in
  Alcotest.(check (list string))
    "lib/ and bin/ lint clean" []
    (List.map Lint.pp_violation violations)

let suite =
  [
    Alcotest.test_case "obj-magic" `Quick test_obj_magic;
    Alcotest.test_case "swallow-exn" `Quick test_swallow_exn;
    Alcotest.test_case "lock-protect" `Quick test_lock_protect;
    Alcotest.test_case "schema-ref" `Quick test_schema_ref;
    Alcotest.test_case "printf-in-lib" `Quick test_printf_in_lib;
    Alcotest.test_case "suppression" `Quick test_suppression;
    Alcotest.test_case "allow hygiene" `Quick test_allow_hygiene;
    Alcotest.test_case "repo lib+bin clean" `Quick test_repo_is_clean;
  ]
