(* mrbackup/mrrestore ASCII dump format and the change journal. *)

open Relation

let schema =
  Schema.make ~name:"things"
    [
      { Schema.cname = "name"; ctype = Value.TStr };
      { Schema.cname = "n"; ctype = Value.TInt };
    ]

let test_escape_basic () =
  Alcotest.(check string) "colon" "a\\:b" (Backup.escape_field "a:b");
  Alcotest.(check string) "backslash" "a\\\\b" (Backup.escape_field "a\\b");
  Alcotest.(check string) "newline" "a\\012b" (Backup.escape_field "a\nb");
  Alcotest.(check string) "plain" "hello" (Backup.escape_field "hello")

let test_unescape_inverse () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("roundtrip " ^ String.escaped s) s
        (Backup.unescape_field (Backup.escape_field s)))
    [ "plain"; "a:b"; "a\\b"; "tab\there"; "nl\nhere"; ":::"; "\\\\"; "" ]

let test_unescape_errors () =
  Alcotest.check_raises "dangling" (Failure "backup: dangling backslash")
    (fun () -> ignore (Backup.unescape_field "abc\\"));
  Alcotest.check_raises "bad escape" (Failure "backup: bad escape \\x")
    (fun () -> ignore (Backup.unescape_field "\\x"));
  Alcotest.check_raises "truncated octal"
    (Failure "backup: truncated octal escape") (fun () ->
      ignore (Backup.unescape_field "\\01"))

let test_row_roundtrip () =
  let fields = [ "user:name"; "12"; "multi\nline"; "back\\slash" ] in
  Alcotest.(check (list string))
    "decode inverse of encode" fields
    (Backup.decode_row (Backup.encode_row fields))

let test_dump_restore () =
  let clock = ref 10 in
  let db = Db.create ~clock:(fun () -> !clock) in
  let t = Db.add_table db schema in
  ignore (Table.insert t [| Value.Str "one:colon"; Value.Int 1 |]);
  ignore (Table.insert t [| Value.Str "two"; Value.Int 2 |]);
  let dump = Backup.dump db in
  (* restore into a fresh database with the same schemas *)
  let db2 = Db.create ~clock:(fun () -> !clock) in
  let t2 = Db.add_table db2 schema in
  Backup.restore db2 dump;
  Alcotest.(check int) "rows restored" 2 (Table.cardinal t2);
  match Table.select_one t2 (Pred.eq_str "name" "one:colon") with
  | Some (_, r) -> Alcotest.(check int) "int field" 1 (Value.int r.(1))
  | None -> Alcotest.fail "row with colon lost"

let test_restore_clears_first () =
  let db = Db.create ~clock:(fun () -> 0) in
  let t = Db.add_table db schema in
  ignore (Table.insert t [| Value.Str "stale"; Value.Int 9 |]);
  Backup.restore db [ ("things", "fresh:1\n") ];
  Alcotest.(check int) "only restored rows" 1 (Table.cardinal t);
  Alcotest.(check int) "stale gone" 0
    (Table.count t (Pred.eq_str "name" "stale"))

let test_restore_unknown_relation () =
  let db = Db.create ~clock:(fun () -> 0) in
  Alcotest.check_raises "unknown" (Failure "backup: unknown relation \"ghost\"")
    (fun () -> Backup.restore db [ ("ghost", "") ])

let test_dump_size () =
  let db = Db.create ~clock:(fun () -> 0) in
  let t = Db.add_table db schema in
  ignore (Table.insert t [| Value.Str "abc"; Value.Int 1 |]);
  Alcotest.(check int) "size = bytes of files"
    (String.length (Backup.dump_table t))
    (Backup.dump_size db)

(* Full-database dump/restore across the real Moira schema. *)
let test_moira_schema_roundtrip () =
  let clock = ref 1000 in
  let mdb = Moira.Mdb.create ~clock:(fun () -> !clock) in
  let glue =
    Moira.Glue.create ~mdb ~registry:(Moira.Catalog.make ()) ()
  in
  let must name args =
    match Moira.Glue.query glue ~name args with
    | Ok _ -> ()
    | Error c -> Alcotest.failf "%s: %s" name (Comerr.Com_err.error_message c)
  in
  must "add_machine" [ "HOST-1.MIT.EDU"; "VAX" ];
  must "add_user"
    [ "zaphod"; "1"; "/bin/csh"; "Beeblebrox"; "Zaphod"; "Q"; "1"; "xx";
      "1991" ];
  let db = Moira.Mdb.db mdb in
  let dump = Backup.dump db in
  let mdb2 = Moira.Mdb.create ~clock:(fun () -> !clock) in
  Backup.restore (Moira.Mdb.db mdb2) dump;
  Alcotest.(check bool) "user restored" true
    (Moira.Lookup.user_id mdb2 "zaphod" <> None);
  Alcotest.(check bool) "machine restored" true
    (Moira.Lookup.machine_id mdb2 "host-1.mit.edu" <> None)

(* --- journal --- *)

let entry time who query args =
  { Journal.time; who; client = "test"; query; ctx = ""; args }

let test_journal_roundtrip () =
  let j = Journal.create () in
  Journal.append j (entry 10 "ann" "update_user_shell" [ "ann"; "/bin/sh" ]);
  Journal.append j (entry 20 "bob" "add_member_to_list" [ "l:1"; "USER"; "bob" ]);
  let j2 = Journal.of_lines (Journal.to_lines j) in
  Alcotest.(check int) "length" 2 (Journal.length j2);
  match Journal.entries j2 with
  | [ e1; e2 ] ->
      Alcotest.(check string) "who" "ann" e1.Journal.who;
      Alcotest.(check (list string))
        "args with colon preserved" [ "l:1"; "USER"; "bob" ]
        e2.Journal.args
  | _ -> Alcotest.fail "entries"

let test_journal_since_and_replay () =
  let j = Journal.create () in
  Journal.append j (entry 10 "a" "q" []);
  Journal.append j (entry 20 "b" "q" []);
  Journal.append j (entry 30 "c" "q" []);
  Alcotest.(check int) "since 20" 2 (List.length (Journal.since j 20));
  let seen = ref [] in
  let n = Journal.replay j ~since:20 ~f:(fun e -> seen := e.Journal.who :: !seen) in
  Alcotest.(check int) "replayed" 2 n;
  Alcotest.(check (list string)) "order" [ "b"; "c" ] (List.rev !seen)

let test_journal_torn_tail () =
  let j = Journal.create () in
  Journal.append j (entry 10 "ann" "update_user_shell" [ "ann"; "/bin/sh" ]);
  Journal.append j (entry 20 "bob" "add_member_to_list" [ "l:1"; "USER"; "bob" ]);
  let lines = Journal.to_lines j in
  (* a crash mid-append leaves a torn final record: the second entry
     cut off before its query field *)
  let first_line =
    String.sub lines 0 (String.index lines '\n' + 1)
  in
  let torn = first_line ^ "20:bob" in
  let torn0 =
    Option.value (Obs.find_counter Obs.default "journal.torn_tail") ~default:0
  in
  let j2 = Journal.of_lines torn in
  Alcotest.(check int) "good prefix kept" 1 (Journal.length j2);
  Alcotest.(check string) "first entry intact" "ann"
    (List.hd (Journal.entries j2)).Journal.who;
  Alcotest.(check int) "torn tail counted" (torn0 + 1)
    (Option.value (Obs.find_counter Obs.default "journal.torn_tail")
       ~default:0);
  (* an entirely well-formed journal is untouched *)
  Alcotest.(check int) "clean parse" 2
    (Journal.length (Journal.of_lines lines))

let test_journal_garbage_line () =
  let j = Journal.create () in
  Journal.append j (entry 10 "ann" "q" [ "a" ]);
  let lines = Journal.to_lines j ^ "not: a; journal, record\n" in
  let j2 = Journal.of_lines lines in
  Alcotest.(check int) "truncated at garbage" 1 (Journal.length j2)

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"backup: escape/unescape roundtrip" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 60))
    (fun s -> Backup.unescape_field (Backup.escape_field s) = s)

let prop_escaped_has_no_raw_colon =
  QCheck.Test.make ~name:"backup: escaped field has no raw colon/newline"
    ~count:500
    QCheck.(string_of_size (Gen.int_range 0 60))
    (fun s ->
      let e = Backup.escape_field s in
      (not (String.contains e '\n'))
      &&
      (* every ':' is preceded by a backslash *)
      let ok = ref true in
      String.iteri
        (fun i c ->
          if c = ':' && (i = 0 || e.[i - 1] <> '\\') then ok := false)
        e;
      !ok)

let prop_row_roundtrip =
  QCheck.Test.make ~name:"backup: row encode/decode roundtrip" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6) (string_of_size (Gen.int_range 0 20)))
    (fun fields ->
      Backup.decode_row (Backup.encode_row fields) = fields)

let prop_random_table_dump_restore =
  QCheck.Test.make ~name:"backup: random table dump/restore identity"
    ~count:150
    QCheck.(
      list_of_size (Gen.int_range 0 20)
        (pair (string_of_size (Gen.int_range 0 30)) small_int))
    (fun rows ->
      let clock () = 7 in
      let db = Db.create ~clock in
      let t = Db.add_table db schema in
      List.iter
        (fun (name, n) ->
          ignore (Table.insert t [| Value.Str name; Value.Int n |]))
        rows;
      let dump = Backup.dump db in
      let db2 = Db.create ~clock in
      let t2 = Db.add_table db2 schema in
      Backup.restore db2 dump;
      let contents tbl =
        List.map
          (fun (_, r) -> (Value.str r.(0), Value.int r.(1)))
          (Table.select tbl Pred.True)
      in
      contents t2 = rows && Backup.dump db2 = dump)

let suite =
  [
    Alcotest.test_case "escape basics" `Quick test_escape_basic;
    Alcotest.test_case "unescape inverse" `Quick test_unescape_inverse;
    Alcotest.test_case "unescape errors" `Quick test_unescape_errors;
    Alcotest.test_case "row roundtrip" `Quick test_row_roundtrip;
    Alcotest.test_case "dump/restore" `Quick test_dump_restore;
    Alcotest.test_case "restore clears" `Quick test_restore_clears_first;
    Alcotest.test_case "restore unknown relation" `Quick
      test_restore_unknown_relation;
    Alcotest.test_case "dump size" `Quick test_dump_size;
    Alcotest.test_case "moira schema roundtrip" `Quick
      test_moira_schema_roundtrip;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal since/replay" `Quick
      test_journal_since_and_replay;
    Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
    Alcotest.test_case "journal garbage line" `Quick
      test_journal_garbage_line;
    QCheck_alcotest.to_alcotest prop_escape_roundtrip;
    QCheck_alcotest.to_alcotest prop_escaped_has_no_raw_colon;
    QCheck_alcotest.to_alcotest prop_row_roundtrip;
    QCheck_alcotest.to_alcotest prop_random_table_dump_restore;
  ]
