(* The one-pass membership closure against the naive reference walks:
   equality on deterministic shapes (diamonds, cycles) and randomized
   graphs, plus the memo's delta maintenance against fresh builds. *)

open Moira

let uid t login = Option.get (Lookup.user_id t.Fix.mdb login)
let lid t name = Option.get (Lookup.list_id t.Fix.mdb name)

let mklist t name =
  ignore
    (Fix.must t "add_list"
       [ name; "1"; "0"; "0"; "0"; "0"; "-1"; "NONE"; "NONE"; "d" ])

let addm t l ty m = ignore (Fix.must t "add_member_to_list" [ l; ty; m ])
let delm t l ty m = ignore (Fix.must t "delete_member_from_list" [ l; ty; m ])

let sorted = List.sort compare

(* closure answers == naive answers, for every list and both users *)
let check_agreement t lists =
  List.iter
    (fun name ->
      let list_id = lid t name in
      Alcotest.(check (list string))
        (name ^ " expand")
        (Acl.expand_users_naive t.Fix.mdb ~list_id)
        (Acl.expand_users t.Fix.mdb ~list_id);
      Alcotest.(check (list int))
        (name ^ " containers")
        (sorted (Acl.containing_lists_naive t.Fix.mdb ~mtype:"LIST" ~mid:list_id))
        (sorted (Acl.containing_lists t.Fix.mdb ~mtype:"LIST" ~mid:list_id)))
    lists;
  List.iter
    (fun login ->
      let mid = uid t login in
      Alcotest.(check (list int))
        (login ^ " containers")
        (sorted (Acl.containing_lists_naive t.Fix.mdb ~mtype:"USER" ~mid))
        (sorted (Acl.containing_lists t.Fix.mdb ~mtype:"USER" ~mid)))
    [ "ann"; "bob" ]

let test_diamond () =
  let t = Fix.create () in
  List.iter (mklist t) [ "top"; "left"; "right"; "bottom" ];
  addm t "top" "LIST" "left";
  addm t "top" "LIST" "right";
  addm t "left" "LIST" "bottom";
  addm t "right" "LIST" "bottom";
  addm t "bottom" "USER" "bob";
  addm t "right" "USER" "ann";
  Alcotest.(check (list string)) "diamond expands once" [ "ann"; "bob" ]
    (Acl.expand_users t.Fix.mdb ~list_id:(lid t "top"));
  check_agreement t [ "top"; "left"; "right"; "bottom" ]

let test_cycle () =
  let t = Fix.create () in
  List.iter (mklist t) [ "a"; "b"; "c" ];
  (* a -> b -> c -> a, with bob at the bottom of the cycle *)
  addm t "a" "LIST" "b";
  addm t "b" "LIST" "c";
  addm t "c" "LIST" "a";
  addm t "c" "USER" "bob";
  List.iter
    (fun l ->
      Alcotest.(check (list string))
        (l ^ " sees through cycle") [ "bob" ]
        (Acl.expand_users t.Fix.mdb ~list_id:(lid t l)))
    [ "a"; "b"; "c" ];
  (* every list in the cycle contains bob, and each list contains the
     others (and itself) through the cycle *)
  let containers =
    sorted (Acl.containing_lists t.Fix.mdb ~mtype:"USER" ~mid:(uid t "bob"))
  in
  Alcotest.(check (list int)) "bob in all three"
    (sorted [ lid t "a"; lid t "b"; lid t "c" ])
    containers;
  check_agreement t [ "a"; "b"; "c" ]

let counter name = Option.value (Obs.find_counter Obs.default name) ~default:0

let test_memo_refresh () =
  let t = Fix.create () in
  mklist t "crew";
  mklist t "sub";
  let c1 = Closure.get t.Fix.mdb in
  Alcotest.(check bool) "unchanged db, same closure" true
    (c1 == Closure.get t.Fix.mdb);
  let full0 = counter "closure.build.full" in
  let delta0 = counter "closure.build.delta" in
  let cur0 = Closure.change_cursor t.Fix.mdb in
  addm t "crew" "USER" "bob";
  let c2 = Closure.get t.Fix.mdb in
  Alcotest.(check (list int)) "insert visible" [ uid t "bob" ]
    (Closure.user_ids_of_list c2 ~list_id:(lid t "crew"));
  Alcotest.(check (option (list int))) "insert reports its user"
    (Some [ uid t "bob" ])
    (Closure.users_changed_since t.Fix.mdb ~cursor:cur0);
  delm t "crew" "USER" "bob";
  let c3 = Closure.get t.Fix.mdb in
  Alcotest.(check (list int)) "delete visible" []
    (Closure.user_ids_of_list c3 ~list_id:(lid t "crew"));
  Alcotest.(check (pair int int)) "user edits applied as deltas" (0, 2)
    (counter "closure.build.full" - full0, counter "closure.build.delta" - delta0);
  (* a LIST member can reshape the component graph: full rebuild, and
     the per-user delta before it is no longer known *)
  addm t "crew" "LIST" "sub";
  ignore (Closure.get t.Fix.mdb);
  Alcotest.(check int) "list edit rebuilds" 1
    (counter "closure.build.full" - full0);
  Alcotest.(check (option (list int))) "delta unknown across a rebuild" None
    (Closure.users_changed_since t.Fix.mdb ~cursor:cur0)

(* The memoised closure, after any sequence of member edits, answers
   every query exactly as a fresh build does.  Rows go straight into the
   members table (list and user ids need not name real rows), so
   duplicates, self-loops and non-USER types are all reachable. *)
let n_lists = 8
let user_ids = List.init 5 (fun i -> 100 + i)

let agree_with_fresh mdb =
  let memo = Closure.get mdb and fresh = Closure.build mdb in
  let ok = ref true in
  let same what a b =
    if a <> b then begin
      ok := false;
      Printf.printf "closure delta diverges: %s\n%!" what
    end
  in
  let users_of c l =
    let acc = ref [] in
    Closure.iter_users c ~list_id:l (fun u -> acc := u :: !acc);
    List.rev !acc
  in
  for l = 0 to n_lists - 1 do
    let w = "list " ^ string_of_int l in
    same (w ^ " containing")
      (Closure.containing_lists memo ~mtype:"LIST" ~mid:l)
      (Closure.containing_lists fresh ~mtype:"LIST" ~mid:l);
    same (w ^ " users")
      (Closure.user_ids_of_list memo ~list_id:l)
      (Closure.user_ids_of_list fresh ~list_id:l);
    same (w ^ " iter_users") (users_of memo l) (users_of fresh l);
    same (w ^ " direct")
      (Closure.direct_members memo ~list_id:l)
      (Closure.direct_members fresh ~list_id:l)
  done;
  List.iter
    (fun u ->
      same
        ("user " ^ string_of_int u)
        (Closure.containing_lists memo ~mtype:"USER" ~mid:u)
        (Closure.containing_lists fresh ~mtype:"USER" ~mid:u))
    user_ids;
  !ok

type edit = { add : bool; mtype : string; list : int; mid : int }

let apply_edit members e =
  let open Relation in
  if e.add then
    ignore
      (Table.insert members
         [| Value.Int e.list; Value.Str e.mtype; Value.Int e.mid |])
  else
    ignore
      (Table.delete members
         (Pred.conj
            [
              Pred.eq_int "list_id" e.list;
              Pred.eq_str "member_type" e.mtype;
              Pred.eq_int "member_id" e.mid;
            ]))

(* mostly USER edits, so most batches take the delta path; a LIST edit
   now and then reshapes the graph (cycles, self-loops, diamonds) *)
let edit_gen =
  QCheck.Gen.(
    let* add = frequency [ (3, return true); (2, return false) ] in
    let* list = int_range 0 (n_lists - 1) in
    let* kind = int_range 0 9 in
    if kind = 0 then
      map (fun mid -> { add; mtype = "LIST"; list; mid }) (int_range 0 (n_lists - 1))
    else if kind = 1 then return { add; mtype = "STRING"; list; mid = 7 }
    else map (fun mid -> { add; mtype = "USER"; list; mid }) (oneofl user_ids))

let prop_delta_matches_build =
  QCheck.Test.make ~name:"closure: memoised deltas equal a fresh build"
    ~count:60
    QCheck.(make Gen.(list_size (int_range 1 8) (list_size (int_range 0 12) edit_gen)))
    (fun batches ->
      let t = Fix.create () in
      let members = Mdb.table t.Fix.mdb "members" in
      ignore (Closure.get t.Fix.mdb);
      List.for_all
        (fun batch ->
          List.iter (apply_edit members) batch;
          agree_with_fresh t.Fix.mdb)
        batches)

(* More member changes than the table's change log holds: the delta is
   unknown and the memo must rebuild, still agreeing with a fresh build. *)
let test_wrapped_log () =
  let t = Fix.create () in
  let members = Mdb.table t.Fix.mdb "members" in
  apply_edit members { add = true; mtype = "LIST"; list = 0; mid = 1 };
  ignore (Closure.get t.Fix.mdb);
  let full0 = counter "closure.build.full" in
  for i = 0 to 4199 do
    let e = { add = true; mtype = "USER"; list = i mod n_lists; mid = 100 + (i mod 5) } in
    apply_edit members e;
    apply_edit members { e with add = i mod 3 <> 0 }
  done;
  Alcotest.(check bool) "agrees after 8,400 changes" true
    (agree_with_fresh t.Fix.mdb);
  Alcotest.(check int) "wrapped log rebuilds" 1
    (counter "closure.build.full" - full0);
  (* deltas that each fit the table's log but together outrun the
     closure's own user log: an old position reads as unknown *)
  let cursor = Closure.change_cursor t.Fix.mdb in
  for batch = 0 to 2 do
    for i = 0 to 2999 do
      apply_edit members
        { add = true; mtype = "USER"; list = batch; mid = 1000 + i }
    done;
    ignore (Closure.get t.Fix.mdb)
  done;
  Alcotest.(check int) "each batch a delta" 1
    (counter "closure.build.full" - full0);
  Alcotest.(check (option (list int))) "user log overrun" None
    (Closure.users_changed_since t.Fix.mdb ~cursor)

(* Randomized graphs: any edge set (self-loops, cycles, diamonds, and
   rejected duplicates included) must leave closure and naive walks in
   exact agreement. *)
let prop_matches_naive =
  QCheck.Test.make ~name:"closure: equals naive walks on random graphs"
    ~count:40
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 30)
           (pair (int_range 0 9) (int_range 0 9)))
        (list_of_size (Gen.int_range 0 6) (int_range 0 9)))
    (fun (edges, bob_lists) ->
      let t = Fix.create () in
      let g i = Printf.sprintf "g%d" i in
      for i = 0 to 9 do mklist t (g i) done;
      List.iter
        (fun (a, b) ->
          match
            Moira.Glue.query t.Fix.glue ~name:"add_member_to_list"
              [ g a; "LIST"; g b ]
          with
          | Ok _ | Error _ -> ())
        edges;
      List.iter
        (fun l ->
          match
            Moira.Glue.query t.Fix.glue ~name:"add_member_to_list"
              [ g l; "USER"; "bob" ]
          with
          | Ok _ | Error _ -> ())
        bob_lists;
      let lists = List.init 10 (fun i -> g i) in
      check_agreement t lists;
      true)

let suite =
  [
    Alcotest.test_case "diamond" `Quick test_diamond;
    Alcotest.test_case "cycle" `Quick test_cycle;
    Alcotest.test_case "memo refresh" `Quick test_memo_refresh;
    Alcotest.test_case "wrapped log rebuilds" `Quick test_wrapped_log;
    QCheck_alcotest.to_alcotest prop_matches_naive;
    QCheck_alcotest.to_alcotest prop_delta_matches_build;
  ]
