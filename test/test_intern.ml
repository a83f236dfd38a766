(* The string intern pool: hash-consed row atoms, physical sharing that
   survives the recovery paths (backup restore, journal replay), and the
   sorted-view delta merge the pool's compact rows pay for. *)

open Relation

let schema =
  Schema.make ~name:"people"
    [
      { Schema.cname = "name"; ctype = Value.TStr };
      { Schema.cname = "age"; ctype = Value.TInt };
      { Schema.cname = "shell"; ctype = Value.TStr };
    ]

let fresh_table ?(indexed = [ "name"; "age" ]) () =
  let clock = ref 100 in
  Table.create ~indexed ~clock:(fun () -> !clock) schema

(* a physically fresh copy: equal contents, distinct heap block *)
let copy_string s = String.init (String.length s) (String.get s)

(* --- the pool itself --- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"intern: id/of_id roundtrip, share dedups"
    ~count:200
    QCheck.(string_of_size (Gen.int_range 0 30))
    (fun s ->
      let c = Intern.share s in
      c = s
      && Intern.of_id (Intern.id s) = Some s
      (* a fresh copy of the same bytes maps to the same heap string *)
      && Intern.share (copy_string s) == c)

let test_value_boxes () =
  Alcotest.(check bool) "small ints share a box" true
    (Intern.value (Value.Int 5) == Intern.value (Value.Int 5));
  Alcotest.(check bool) "bools share a box" true
    (Intern.value (Value.Bool true) == Intern.value (Value.Bool true));
  let big = Value.Int 123_456_789 in
  Alcotest.(check bool) "big ints pass through unchanged" true
    (Intern.value big == big);
  Alcotest.(check bool) "str boxes dedup across copies" true
    (Intern.value (Value.Str (copy_string "zigzag"))
    == Intern.value (Value.Str (copy_string "zigzag")))

let test_insert_interns_rows () =
  let t = fresh_table () in
  let r1 =
    Table.insert t
      [| Value.Str (copy_string "ann"); Value.Int 20;
         Value.Str (copy_string "/bin/csh") |]
  in
  let r2 =
    Table.insert t
      [| Value.Str (copy_string "bob"); Value.Int 21;
         Value.Str (copy_string "/bin/csh") |]
  in
  match (Table.get t r1, Table.get t r2) with
  | Some a, Some b ->
      Alcotest.(check bool) "equal cells share one box" true
        (a.(2) == b.(2));
      Alcotest.(check bool) "distinct cells do not" true (a.(0) != b.(0))
  | _ -> Alcotest.fail "inserted rows missing"

let test_update_interns_rows () =
  let t = fresh_table () in
  ignore (Table.insert t [| Value.Str "ann"; Value.Int 20; Value.Str "/bin/csh" |]);
  ignore (Table.insert t [| Value.Str "bob"; Value.Int 21; Value.Str "/bin/sh" |]);
  ignore
    (Table.set_fields t (Pred.eq_str "name" "bob")
       [ ("shell", Value.Str (copy_string "/bin/csh")) ]);
  let cell name =
    match Table.select_one t (Pred.eq_str "name" name) with
    | Some (_, row) -> row.(2)
    | None -> Alcotest.fail (name ^ " missing")
  in
  Alcotest.(check bool) "updated cell joins the shared box" true
    (cell "ann" == cell "bob")

(* --- sharing survives the recovery paths --- *)

let test_backup_restore_preserves_sharing () =
  let t = fresh_table () in
  for i = 0 to 9 do
    ignore
      (Table.insert t
         [| Value.Str (Printf.sprintf "u%d" i); Value.Int (20 + i);
            Value.Str (copy_string "/bin/csh") |])
  done;
  let dumped = Backup.dump_table t in
  let t2 = fresh_table () in
  Alcotest.(check int) "all rows restored" 10 (Backup.restore_table t2 dumped);
  Alcotest.(check string) "bytes roundtrip" dumped (Backup.dump_table t2);
  match
    ( Table.select_one t2 (Pred.eq_str "name" "u0"),
      Table.select_one t2 (Pred.eq_str "name" "u7") )
  with
  | Some (_, a), Some (_, b) ->
      Alcotest.(check bool) "restored rows share interned cells" true
        (a.(2) == b.(2))
  | _ -> Alcotest.fail "restored rows missing"

let test_journal_replay_preserves_sharing () =
  let j = Journal.create () in
  List.iter
    (fun (time, login) ->
      Journal.append j
        {
          Journal.time;
          who = copy_string "admin";
          client = copy_string "moira";
          query = copy_string "update_user_shell";
          ctx = "";
          args = [ login; "/bin/sh" ];
        })
    [ (10, "ann"); (20, "bob"); (30, "cyn") ];
  let shared_who es =
    match es with
    | a :: rest ->
        List.for_all (fun e -> e.Journal.who == a.Journal.who) rest
    | [] -> false
  in
  Alcotest.(check bool) "appended entries share who" true
    (shared_who (Journal.entries j));
  (* the serialize/parse recovery path re-interns on append *)
  let j2 = Journal.of_lines (Journal.to_lines j) in
  Alcotest.(check int) "replayed length" 3 (Journal.length j2);
  Alcotest.(check bool) "parsed entries share who" true
    (shared_who (Journal.entries j2));
  Alcotest.(check bool) "and share with the pool's canonical copy" true
    ((List.hd (Journal.entries j2)).Journal.who == Intern.share "admin")

(* --- glob selects on an indexed column across edits --- *)

(* reference: unindexed full evaluation *)
let naive t p =
  List.rev
    (Table.fold t ~init:[] ~f:(fun acc id row ->
         if Pred.eval (Table.schema t) p row then (id, row) :: acc else acc))

(* a literal-prefix glob on the indexed name column *)
let name_prefix p = Pred.Glob ("name", p ^ "*")

let test_glob_after_small_change () =
  let t = fresh_table () in
  for i = 0 to 199 do
    ignore
      (Table.insert t
         [| Value.Str (Printf.sprintf "u%03d" i); Value.Int (i mod 50);
            Value.Str "/bin/csh" |])
  done;
  let q = name_prefix "u01" in
  Alcotest.(check bool) "initial prefix correct" true
    (Table.select t q = naive t q);
  (* touch a handful of name keys: rename, delete, insert *)
  ignore
    (Table.set_fields t (Pred.eq_str "name" "u007")
       [ ("name", Value.Str "u01x") ]);
  ignore (Table.delete t (Pred.eq_str "name" "u013"));
  ignore (Table.insert t [| Value.Str "u01z"; Value.Int 15; Value.Str "/bin/sh" |]);
  Alcotest.(check bool) "prefix correct after edits" true
    (Table.select t q = naive t q);
  (* and it keeps answering correctly as changes continue *)
  ignore (Table.delete t (Pred.eq_str "name" "u01z"));
  Alcotest.(check bool) "still correct after delete" true
    (Table.select t q = naive t q)

let test_glob_after_large_batch () =
  let t = fresh_table () in
  for i = 0 to 99 do
    ignore
      (Table.insert t
         [| Value.Str (Printf.sprintf "u%04d" i); Value.Int i;
            Value.Str "/bin/csh" |])
  done;
  let q = name_prefix "u" in
  ignore (Table.select t q);
  (* a batch of 4,301 new keys between two selects *)
  for i = 100 to 4_400 do
    ignore
      (Table.insert t
         [| Value.Str (Printf.sprintf "u%04d" i); Value.Int i;
            Value.Str "/bin/csh" |])
  done;
  Alcotest.(check bool) "prefix correct after a large batch" true
    (Table.select t q = naive t q)

let test_glob_after_clear () =
  let t = fresh_table () in
  for i = 0 to 49 do
    ignore
      (Table.insert t
         [| Value.Str (Printf.sprintf "u%02d" i); Value.Int i;
            Value.Str "/bin/csh" |])
  done;
  let q = name_prefix "u" in
  Alcotest.(check int) "before clear" 50 (List.length (Table.select t q));
  Table.clear t;
  ignore (Table.insert t [| Value.Str "usolo"; Value.Int 7; Value.Str "/bin/sh" |]);
  (* clear empties the index buckets wholesale: no pre-clear row may
     come back *)
  match Table.select t q with
  | [ (_, row) ] ->
      Alcotest.(check string) "only the post-clear row" "usolo"
        (Value.str row.(0))
  | l -> Alcotest.failf "expected 1 row after clear, got %d" (List.length l)

let prop_glob_select_model =
  (* random edit scripts over an indexed table: every prefix answer must
     match naive evaluation *)
  QCheck.Test.make ~name:"sorted view: merge path matches naive eval"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_range 0 2) (int_range 0 19) (int_range 0 30)))
    (fun script ->
      let t = fresh_table () in
      for i = 0 to 19 do
        ignore
          (Table.insert t
             [| Value.Str (Printf.sprintf "u%02d" i); Value.Int i;
                Value.Str "/bin/csh" |])
      done;
      let q = name_prefix "u1" in
      List.for_all
        (fun (op, who, n) ->
          (match op with
          | 0 ->
              ignore
                (Table.insert t
                   [| Value.Str (Printf.sprintf "u%02d-%02d" who n);
                      Value.Int n; Value.Str "/bin/sh" |])
          | 1 ->
              (* renames move rows into and out of the prefix *)
              ignore
                (Table.set_fields t
                   (Pred.eq_str "name" (Printf.sprintf "u%02d" who))
                   [ ("name", Value.Str (Printf.sprintf "u%02d" n)) ])
          | _ ->
              ignore
                (Table.delete t
                   (Pred.eq_str "name" (Printf.sprintf "u%02d" who))));
          Table.select t q = naive t q)
        script)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "value boxes dedup" `Quick test_value_boxes;
    Alcotest.test_case "insert interns rows" `Quick test_insert_interns_rows;
    Alcotest.test_case "update interns rows" `Quick test_update_interns_rows;
    Alcotest.test_case "sharing survives backup restore" `Quick
      test_backup_restore_preserves_sharing;
    Alcotest.test_case "sharing survives journal replay" `Quick
      test_journal_replay_preserves_sharing;
    Alcotest.test_case "sorted merge after small change" `Quick
      test_glob_after_small_change;
    Alcotest.test_case "sorted overflow rebuilds" `Quick
      test_glob_after_large_batch;
    Alcotest.test_case "sorted view after clear" `Quick
      test_glob_after_clear;
    QCheck_alcotest.to_alcotest prop_glob_select_model;
  ]
