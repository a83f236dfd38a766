(* The per-definition rules and allow hygiene: a known-bad fixture per
   rule, the matching clean variant, and the suppression machinery.
   Fixtures are typechecked in-process ([Deep.load_source]) under a
   lib/ path so every rule (including schema-ref, which is scoped to
   lib/ bin/ examples/) applies; a stub prelude stands in for the
   [Lock], [Pred], [Mdb] and [Gen] modules they call. *)

module Deep = Lint.Deep
module Deep_moira = Lint.Deep_moira

let lib_file = "lib/moira/q_fixture.ml"

let prelude =
  "module Lock = struct\n\
  \  type mode = Exclusive\n\
  \  let acquire _ ~key ~owner (_ : mode) = ignore (key, owner); true\n\
  \  let release _ ~key ~owner = ignore (key, owner)\n\
   end\n\
   module Pred = struct let eq_str (_ : string) (_ : string) = () end\n\
   module Mdb = struct let table () (_ : string) = () end\n\
   module Gen = struct let watch ?columns (_ : string) = ignore columns end\n\
   let f () = 1\n\
   let log _ = ()\n\
   let prefix = \"p\"\n\
   let mdb = ()\n"

(* Build an allow comment without this test file ever containing the
   literal marker (the scanner is line-based and would otherwise read
   the fixture text inside this very file). *)
let allow rule reason = "(*" ^ " lint: allow " ^ rule ^ " -- " ^ reason ^ " *)"

let rules_of ?(file = lib_file) src =
  let src = prelude ^ src in
  let facts = Deep.create () in
  Deep.load_source facts ~file src;
  Deep_moira.findings ~read:(fun _ -> Some src) facts
  |> List.map (fun f -> f.Deep.f_rule)

let check_rules what expected src =
  Alcotest.(check (list string)) what expected (rules_of src)

let test_obj_magic () =
  check_rules "Obj.magic flagged" [ "obj-magic" ] "let y x = Obj.magic x";
  check_rules "Obj.repr not flagged" [] "let y x = Obj.repr x"

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
    "let g l = ignore (Lock.acquire l ~key:\"k\" ~owner:\"o\" Lock.Exclusive)";
  check_rules "protected acquire clean" []
    "let g l run =\n\
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
    (rules_of
       ("let y x = Obj.magic x  " ^ allow "obj-magic" "fixture needs it"));
  Alcotest.(check (list string))
    "solo line above suppresses" []
    (rules_of
       (allow "obj-magic" "fixture needs it" ^ "\nlet y x = Obj.magic x"));
  Alcotest.(check (list string))
    "annotation for another rule does not suppress"
    [ "obj-magic"; "unused-allow" ]
    (rules_of ("let y x = Obj.magic x  " ^ allow "swallow-exn" "wrong rule"))

let test_allow_hygiene () =
  Alcotest.(check (list string))
    "stale annotation reported" [ "unused-allow" ]
    (rules_of (allow "obj-magic" "nothing here anymore" ^ "\nlet x = 1"));
  Alcotest.(check (list string))
    "missing reason rejected" [ "bad-allow"; "obj-magic" ]
    (rules_of ("let y x = Obj.magic x  " ^ "(*" ^ " lint: allow obj-magic *)"));
  Alcotest.(check (list string))
    "unknown rule rejected" [ "bad-allow"; "obj-magic" ]
    (rules_of ("let y x = Obj.magic x  " ^ allow "no-such-rule" "why"));
  (* the retired syntactic effect rules are deep-effect kinds now: an
     allow still naming one is malformed, not silently inert *)
  List.iter
    (fun retired ->
      Alcotest.(check (list string))
        (retired ^ " is no longer a rule") [ "bad-allow" ]
        (rules_of (allow retired "old annotation" ^ "\nlet x = 1")))
    [ "wall-clock"; "global-random"; "unsorted-fold" ];
  (* one scan judges every rule's allows: a call-graph rule's allow is
     used where it suppresses, and stale where it does not *)
  Alcotest.(check (list string))
    "deep-effect allow used" []
    (rules_of ("let now () = Sys.time ()  " ^ allow "deep-effect" "fixture"));
  Alcotest.(check (list string))
    "deep-effect allow stale" [ "unused-allow" ]
    (rules_of (allow "deep-effect" "nothing reads a clock" ^ "\nlet x = 1"))

(* The acceptance criterion, run from _build/default/test by dune: the
   [.cmt] files of lib/ and bin/ are rebuilt first (test/dune). *)
let test_repo_is_clean () =
  let facts = Deep.create () in
  Deep_moira.load_dirs facts [ "../lib"; "../bin" ];
  Alcotest.(check bool) "some definitions found" true
    (Hashtbl.length facts > 500);
  let read file =
    try Some (In_channel.with_open_bin ("../" ^ file) In_channel.input_all)
    with Sys_error _ -> None
  in
  Alcotest.(check (list string))
    "lib/ and bin/ lint clean" []
    (List.map Deep.pp_finding (Deep_moira.findings ~read facts))

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
