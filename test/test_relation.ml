(* The relational engine: values, globs, schemas, predicates, tables. *)

open Relation

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_bool b = Value.Bool b

let sample_schema =
  Schema.make ~name:"people"
    [
      { Schema.cname = "name"; ctype = Value.TStr };
      { Schema.cname = "age"; ctype = Value.TInt };
      { Schema.cname = "active"; ctype = Value.TBool };
    ]

let fresh_table ?(indexed = [ "name" ]) () =
  let clock = ref 100 in
  (Table.create ~indexed ~clock:(fun () -> !clock) sample_schema, clock)

let row name age active = [| v_str name; v_int age; v_bool active |]

(* --- Value --- *)

let test_value_conversions () =
  Alcotest.(check string) "int" "42" (Value.to_string (v_int 42));
  Alcotest.(check string) "bool true" "1" (Value.to_string (v_bool true));
  Alcotest.(check string) "bool false" "0" (Value.to_string (v_bool false));
  Alcotest.(check string) "str" "x:y" (Value.to_string (v_str "x:y"));
  Alcotest.(check bool) "of_string int" true
    (Value.equal (Value.of_string Value.TInt " 7 ") (v_int 7));
  Alcotest.(check bool) "of_string bool" true
    (Value.equal (Value.of_string Value.TBool "1") (v_bool true));
  Alcotest.check_raises "bad int" (Failure "value: \"zap\" is not an integer")
    (fun () -> ignore (Value.of_string Value.TInt "zap"))

let test_value_projections () =
  Alcotest.(check int) "bool as int" 1 (Value.int (v_bool true));
  Alcotest.(check bool) "int as bool" true (Value.bool (v_int 7));
  Alcotest.check_raises "str of int"
    (Invalid_argument "Value.str: not a string") (fun () ->
      ignore (Value.str (v_int 1)))

(* --- Glob --- *)

let test_glob_basics () =
  let m p s = Glob.matches ~pattern:p s in
  Alcotest.(check bool) "exact" true (m "abc" "abc");
  Alcotest.(check bool) "star any" true (m "*" "anything");
  Alcotest.(check bool) "star empty" true (m "*" "");
  Alcotest.(check bool) "prefix" true (m "ab*" "abcdef");
  Alcotest.(check bool) "suffix" true (m "*def" "abcdef");
  Alcotest.(check bool) "infix" true (m "a*f" "abcdef");
  Alcotest.(check bool) "question" true (m "a?c" "abc");
  Alcotest.(check bool) "question exact len" false (m "a?c" "abbc");
  Alcotest.(check bool) "question after star" true (m "*?c" "abc");
  Alcotest.(check bool) "question needs a char" false (m "abc?" "abc");
  Alcotest.(check bool) "no match" false (m "abc" "abd");
  Alcotest.(check bool) "multiple stars" true (m "*b*d*" "abcd");
  Alcotest.(check bool) "trailing star backtrack" true (m "a*bc" "axxbybc");
  Alcotest.(check bool) "case-sensitive" false (m "suomi*" "SUOMI.MIT.EDU")

let test_is_pattern () =
  Alcotest.(check bool) "star" true (Glob.is_pattern "a*");
  Alcotest.(check bool) "question" true (Glob.is_pattern "a?");
  Alcotest.(check bool) "plain" false (Glob.is_pattern "abc")

(* --- Schema --- *)

let test_schema () =
  Alcotest.(check int) "arity" 3 (Schema.arity sample_schema);
  Alcotest.(check int) "index_of" 1 (Schema.index_of sample_schema "age");
  Alcotest.(check bool) "mem" true (Schema.mem sample_schema "active");
  Alcotest.(check bool) "not mem" false (Schema.mem sample_schema "ghost");
  Alcotest.check_raises "duplicate col"
    (Invalid_argument "Schema.make: duplicate column \"a\" in \"bad\"")
    (fun () ->
      ignore
        (Schema.make ~name:"bad"
           [
             { Schema.cname = "a"; ctype = Value.TInt };
             { Schema.cname = "a"; ctype = Value.TStr };
           ]))

let test_schema_check_tuple () =
  Schema.check_tuple sample_schema (row "x" 1 true);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "people: tuple arity 2, expected 3") (fun () ->
      Schema.check_tuple sample_schema [| v_str "x"; v_int 1 |]);
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "people.age: expected int, got string") (fun () ->
      Schema.check_tuple sample_schema [| v_str "x"; v_str "y"; v_bool true |])

(* --- Pred --- *)

let test_pred_eval () =
  let t = row "ann" 30 true in
  let ev p = Pred.eval sample_schema p t in
  Alcotest.(check bool) "eq str" true (ev (Pred.eq_str "name" "ann"));
  Alcotest.(check bool) "eq int" true (ev (Pred.eq_int "age" 30));
  Alcotest.(check bool) "eq bool" true (ev (Pred.eq_bool "active" true));
  Alcotest.(check bool) "glob" true (ev (Pred.Glob ("name", "a*")));
  Alcotest.(check bool) "and" false
    (ev (Pred.And (Pred.eq_str "name" "ann", Pred.eq_int "age" 31)));
  Alcotest.(check bool) "or" true
    (ev (Pred.Or (Pred.eq_str "name" "bob", Pred.eq_int "age" 30)));
  Alcotest.(check bool) "not" true (ev (Pred.Not (Pred.eq_int "age" 31)));
  Alcotest.(check bool) "conj empty" true (ev (Pred.conj []));
  Alcotest.(check bool) "disj empty" false (ev (Pred.disj []))

let test_pred_name_match () =
  match Pred.name_match "name" "ab*" with
  | Pred.Glob ("name", "ab*") -> (
      match Pred.name_match "name" "abc" with
      | Pred.Eq ("name", Value.Str "abc") -> ()
      | _ -> Alcotest.fail "expected Eq for plain")
  | _ -> Alcotest.fail "expected Glob for pattern"

let test_pred_indexable () =
  let p =
    Pred.And
      (Pred.eq_str "name" "x", Pred.Or (Pred.eq_int "age" 1, Pred.True))
  in
  Alcotest.(check int) "one indexable eq" 1
    (List.length (Pred.indexable_eqs p))

(* --- Table --- *)

let test_table_insert_select () =
  let t, _ = fresh_table () in
  let _ = Table.insert t (row "ann" 30 true) in
  let _ = Table.insert t (row "bob" 40 false) in
  Alcotest.(check int) "cardinal" 2 (Table.cardinal t);
  Alcotest.(check int) "select all" 2
    (List.length (Table.select t Pred.True));
  let hits = Table.select t (Pred.eq_str "name" "ann") in
  Alcotest.(check int) "select one" 1 (List.length hits);
  (match hits with
  | [ (_, r) ] -> Alcotest.(check int) "age" 30 (Value.int r.(1))
  | _ -> Alcotest.fail "select")

let test_table_select_one () =
  let t, _ = fresh_table () in
  let _ = Table.insert t (row "ann" 30 true) in
  let _ = Table.insert t (row "ann" 31 true) in
  Alcotest.(check bool) "ambiguous is None" true
    (Table.select_one t (Pred.eq_str "name" "ann") = None);
  Alcotest.(check bool) "missing is None" true
    (Table.select_one t (Pred.eq_str "name" "zed") = None)

let test_table_update_delete () =
  let t, _ = fresh_table () in
  let _ = Table.insert t (row "ann" 30 true) in
  let _ = Table.insert t (row "bob" 40 false) in
  let n =
    Table.set_fields t (Pred.eq_str "name" "ann") [ ("age", v_int 99) ]
  in
  Alcotest.(check int) "updated 1" 1 n;
  (match Table.select_one t (Pred.eq_str "name" "ann") with
  | Some (_, r) -> Alcotest.(check int) "new age" 99 (Value.int r.(1))
  | None -> Alcotest.fail "gone");
  let d = Table.delete t (Pred.eq_str "name" "bob") in
  Alcotest.(check int) "deleted 1" 1 d;
  Alcotest.(check int) "remaining" 1 (Table.cardinal t)

let test_table_index_consistency_after_rename () =
  let t, _ = fresh_table () in
  let _ = Table.insert t (row "ann" 30 true) in
  ignore (Table.set_fields t (Pred.eq_str "name" "ann") [ ("name", v_str "zoe") ]);
  Alcotest.(check int) "old key gone" 0
    (Table.count t (Pred.eq_str "name" "ann"));
  Alcotest.(check int) "new key found" 1
    (Table.count t (Pred.eq_str "name" "zoe"))

let test_table_stats () =
  let t, clock = fresh_table () in
  let _ = Table.insert t (row "ann" 30 true) in
  clock := 200;
  ignore (Table.set_fields t Pred.True [ ("age", v_int 1) ]);
  let s = Table.stats t in
  Alcotest.(check int) "appends" 1 s.Table.appends;
  Alcotest.(check int) "updates" 1 s.Table.updates;
  Alcotest.(check int) "modtime follows clock" 200 s.Table.modtime;
  clock := 300;
  ignore (Table.delete t Pred.True);
  Alcotest.(check int) "del_time" 300 (Table.stats t).Table.del_time

let test_table_col_upper_bound () =
  let t, _ = fresh_table () in
  Alcotest.(check bool) "empty is min_int" true
    (Table.col_upper_bound t "age" = min_int);
  ignore (Table.insert t (row "ann" 30 true));
  ignore (Table.insert t (row "bob" 41 true));
  Alcotest.(check int) "max of inserts" 41 (Table.col_upper_bound t "age");
  ignore (Table.set_fields t (Pred.eq_str "name" "ann") [ ("age", v_int 99) ]);
  Alcotest.(check int) "update raises it" 99 (Table.col_upper_bound t "age");
  ignore (Table.delete t (Pred.eq_str "name" "ann"));
  (* an upper bound, not a max: deletions never lower it *)
  Alcotest.(check int) "never lowered" 99 (Table.col_upper_bound t "age")

let test_table_changelog () =
  let t, _ = fresh_table () in
  let delta = Alcotest.(option (list int)) in
  let c0 = Table.change_cursor t in
  Alcotest.check delta "empty delta" (Some []) (Table.changes_since t ~cursor:c0);
  let r1 = Table.insert t (row "ann" 30 true) in
  let r2 = Table.insert t (row "bob" 40 true) in
  Alcotest.check delta "inserts" (Some [ r1; r2 ])
    (Table.changes_since t ~cursor:c0);
  let c1 = Table.change_cursor t in
  ignore (Table.set_fields t (Pred.eq_str "name" "ann") [ ("age", v_int 31) ]);
  ignore (Table.set_fields t (Pred.eq_str "name" "ann") [ ("age", v_int 32) ]);
  Alcotest.check delta "updates deduped" (Some [ r1 ])
    (Table.changes_since t ~cursor:c1);
  let c2 = Table.change_cursor t in
  ignore (Table.delete t (Pred.eq_str "name" "bob"));
  Alcotest.check delta "deletion appears" (Some [ r2 ])
    (Table.changes_since t ~cursor:c2);
  (* overflow the bounded log: the delta is unknown, a fresh cursor works *)
  let c3 = Table.change_cursor t in
  for i = 0 to 9000 do
    ignore (Table.set_fields t (Pred.eq_str "name" "ann") [ ("age", v_int i) ])
  done;
  Alcotest.check delta "wrapped log" None (Table.changes_since t ~cursor:c3);
  Alcotest.check delta "fresh cursor after wrap" (Some [])
    (Table.changes_since t ~cursor:(Table.change_cursor t));
  (* clear invalidates every earlier cursor *)
  let c4 = Table.change_cursor t in
  Table.clear t;
  Alcotest.check delta "clear invalidates" None
    (Table.changes_since t ~cursor:c4)

let test_table_rows_are_copies () =
  let t, _ = fresh_table () in
  let _ = Table.insert t (row "ann" 30 true) in
  (match Table.select t Pred.True with
  | [ (_, r) ] -> r.(1) <- v_int 999
  | _ -> Alcotest.fail "select");
  match Table.select t Pred.True with
  | [ (_, r) ] -> Alcotest.(check int) "unchanged" 30 (Value.int r.(1))
  | _ -> Alcotest.fail "select"

let test_table_insertion_order () =
  let t, _ = fresh_table () in
  for i = 0 to 9 do
    ignore (Table.insert t (row (Printf.sprintf "p%d" i) i true))
  done;
  let names =
    List.map (fun (_, r) -> Value.str r.(0)) (Table.select t Pred.True)
  in
  Alcotest.(check (list string))
    "rowid order"
    (List.init 10 (fun i -> Printf.sprintf "p%d" i))
    names

let test_table_type_check_on_insert () =
  let t, _ = fresh_table () in
  Alcotest.check_raises "bad insert"
    (Invalid_argument "people.age: expected int, got bool") (fun () ->
      ignore (Table.insert t [| v_str "x"; v_bool true; v_bool true |]))

(* --- Db --- *)

let test_db () =
  let db = Db.create ~clock:(fun () -> 5) in
  let t = Db.add_table db sample_schema in
  Alcotest.(check bool) "lookup same" true (Db.table db "people" == t);
  Alcotest.(check (list string)) "names" [ "people" ] (Db.table_names db);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Db.add_table: \"people\" already exists") (fun () ->
      ignore (Db.add_table db sample_schema));
  Alcotest.(check bool) "missing" true (Db.table_opt db "nope" = None)

(* --- Lock --- *)

let test_locks () =
  let l = Lock.create () in
  Alcotest.(check bool) "shared ok" true
    (Lock.acquire l ~key:"k" ~owner:"a" Lock.Shared);  (* lint: allow lock-protect -- lock-semantics unit test; every release is an explicit assertion *)
  Alcotest.(check bool) "second shared ok" true
    (Lock.acquire l ~key:"k" ~owner:"b" Lock.Shared);  (* lint: allow lock-protect -- lock-semantics unit test; every release is an explicit assertion *)
  Alcotest.(check bool) "exclusive conflicts" false
    (Lock.acquire l ~key:"k" ~owner:"c" Lock.Exclusive);  (* lint: allow lock-protect -- lock-semantics unit test; every release is an explicit assertion *)
  Lock.release l ~key:"k" ~owner:"a";
  Lock.release l ~key:"k" ~owner:"b";
  Alcotest.(check bool) "exclusive after release" true
    (Lock.acquire l ~key:"k" ~owner:"c" Lock.Exclusive);  (* lint: allow lock-protect -- lock-semantics unit test; every release is an explicit assertion *)
  Alcotest.(check bool) "shared blocked by exclusive" false
    (Lock.acquire l ~key:"k" ~owner:"d" Lock.Shared);  (* lint: allow lock-protect -- lock-semantics unit test; expected to fail against the held exclusive *)
  Lock.release_all l ~owner:"c";
  Alcotest.(check bool) "free after release_all" false (Lock.held l ~key:"k")

(* --- property tests --- *)

let prop_glob_star_matches_everything =
  QCheck.Test.make ~name:"glob: * matches any string" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 50))
    (fun s -> Glob.matches ~pattern:"*" s)

let prop_glob_exact_self =
  QCheck.Test.make ~name:"glob: literal matches itself" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 30))
    (fun s ->
      QCheck.assume
        (not (String.exists (fun c -> c = '*' || c = '?') s));
      Glob.matches ~pattern:s s)

let prop_table_count_matches_filter =
  QCheck.Test.make ~name:"table: count = length of select" ~count:100
    QCheck.(list (pair (int_range 0 100) bool))
    (fun rows ->
      let t, _ = fresh_table ~indexed:[] () in
      List.iteri
        (fun i (age, active) ->
          ignore (Table.insert t (row (Printf.sprintf "p%d" i) age active)))
        rows;
      let p = Pred.eq_bool "active" true in
      Table.count t p = List.length (Table.select t p)
      && Table.count t p = List.length (List.filter snd rows))

let suite =
  [
    Alcotest.test_case "value conversions" `Quick test_value_conversions;
    Alcotest.test_case "value projections" `Quick test_value_projections;
    Alcotest.test_case "glob basics" `Quick test_glob_basics;
    Alcotest.test_case "is_pattern" `Quick test_is_pattern;
    Alcotest.test_case "schema" `Quick test_schema;
    Alcotest.test_case "schema check_tuple" `Quick test_schema_check_tuple;
    Alcotest.test_case "pred eval" `Quick test_pred_eval;
    Alcotest.test_case "pred name_match" `Quick test_pred_name_match;
    Alcotest.test_case "pred indexable" `Quick test_pred_indexable;
    Alcotest.test_case "table insert/select" `Quick test_table_insert_select;
    Alcotest.test_case "table select_one" `Quick test_table_select_one;
    Alcotest.test_case "table update/delete" `Quick test_table_update_delete;
    Alcotest.test_case "index survives rename" `Quick
      test_table_index_consistency_after_rename;
    Alcotest.test_case "table stats" `Quick test_table_stats;
    Alcotest.test_case "table col_upper_bound" `Quick
      test_table_col_upper_bound;
    Alcotest.test_case "table changelog" `Quick test_table_changelog;
    Alcotest.test_case "rows are copies" `Quick test_table_rows_are_copies;
    Alcotest.test_case "insertion order" `Quick test_table_insertion_order;
    Alcotest.test_case "type check on insert" `Quick
      test_table_type_check_on_insert;
    Alcotest.test_case "db registry" `Quick test_db;
    Alcotest.test_case "locks" `Quick test_locks;
    QCheck_alcotest.to_alcotest prop_glob_star_matches_everything;
    QCheck_alcotest.to_alcotest prop_glob_exact_self;
    QCheck_alcotest.to_alcotest prop_table_count_matches_filter;
  ]
