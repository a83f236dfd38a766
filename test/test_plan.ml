(* Planner/naive equivalence: random tables (indexed and unindexed
   columns, holes left by deletes) and random predicate trees, checking
   that compiled plans — whatever access path they choose — return
   exactly what a brute-force [Pred.eval] scan returns, including after
   updates and clears that bump the index versions under cached plans. *)

open Relation

let schema =
  Schema.make ~name:"p"
    [
      { Schema.cname = "k"; ctype = Value.TStr };
      { Schema.cname = "s"; ctype = Value.TStr };
      { Schema.cname = "n"; ctype = Value.TInt };
      { Schema.cname = "m"; ctype = Value.TInt };
      { Schema.cname = "b"; ctype = Value.TBool };
    ]

let indexed = [ "k"; "n"; "b" ]

let fresh_table () = Table.create ~indexed ~clock:(fun () -> 0) schema

(* --- random rows and mutations ------------------------------------ *)

type op =
  | Insert of string * string * int * int * bool
  | Set_n of string * int (* n := v where k = key *)
  | Rename of string * string (* k := b where k = a *)
  | Delete of string
  | Delete_n of int
  | Clear

let key_pool = [| "ab"; "aB"; "AB"; "ax"; "bx"; "b?"; "ca"; "cb"; "\xff\xff" |]

let op_gen =
  let open QCheck.Gen in
  let key = map (Array.get key_pool) (int_range 0 (Array.length key_pool - 1)) in
  let num = int_range (-5) 30 in
  frequency
    [
      ( 6,
        map3
          (fun k (s, n) (m, b) -> Insert (k, s, n, m, b))
          key
          (pair key num)
          (pair num bool) );
      (2, map2 (fun k v -> Set_n (k, v)) key num);
      (1, map2 (fun a b -> Rename (a, b)) key key);
      (2, map (fun k -> Delete k) key);
      (1, map (fun v -> Delete_n v) num);
      (1, return Clear);
    ]

let show_op = function
  | Insert (k, s, n, m, b) -> Printf.sprintf "Ins(%S,%S,%d,%d,%b)" k s n m b
  | Set_n (k, v) -> Printf.sprintf "Set_n(%S,%d)" k v
  | Rename (a, b) -> Printf.sprintf "Ren(%S,%S)" a b
  | Delete k -> Printf.sprintf "Del(%S)" k
  | Delete_n v -> Printf.sprintf "Del_n(%d)" v
  | Clear -> "Clear"

let apply t = function
  | Insert (k, s, n, m, b) ->
      ignore
        (Table.insert t
           [| Value.Str k; Value.Str s; Value.Int n; Value.Int m; Value.Bool b |])
  | Set_n (k, v) ->
      ignore (Table.set_fields t (Pred.eq_str "k" k) [ ("n", Value.Int v) ])
  | Rename (a, b) ->
      ignore (Table.set_fields t (Pred.eq_str "k" a) [ ("k", Value.Str b) ])
  | Delete k -> ignore (Table.delete t (Pred.eq_str "k" k))
  | Delete_n v -> ignore (Table.delete t (Pred.eq_int "n" v))
  | Clear -> Table.clear t

(* --- random predicate trees ---------------------------------------- *)

let pred_gen =
  let open QCheck.Gen in
  let str_col = oneofl [ "k"; "s" ] in
  let any_col = oneofl [ "k"; "s"; "n"; "m"; "b" ] in
  let pattern =
    oneofl
      [ "a*"; "aB"; "ab"; "AB"; "a?"; "*b"; "?b"; "c*"; "*"; "b?"; "\xff*" ]
  in
  (* equality values are sometimes deliberately mistyped for the column:
     plans must agree with [Pred.eval], which just compares unequal *)
  let value =
    frequency
      [
        (4, map (fun i -> Value.Int i) (int_range (-5) 30));
        (4, map (Array.get key_pool) (int_range 0 (Array.length key_pool - 1))
           |> fun g -> map (fun s -> Value.Str s) g);
        (1, map (fun b -> Value.Bool b) bool);
      ]
  in
  let leaf =
    frequency
      [
        (1, return Pred.True);
        (4, map2 (fun c v -> Pred.Eq (c, v)) any_col value);
        (3, map2 (fun c p -> Pred.Glob (c, p)) str_col pattern);
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (2, map2 (fun a b -> Pred.And (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Pred.Or (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun a -> Pred.Not a) (self (depth - 1)));
          ])
    3

let show_pred p = Format.asprintf "%a" Pred.pp p

(* --- the equivalence oracle ---------------------------------------- *)

let brute t p =
  List.filter (fun (_, row) -> Pred.eval (Table.schema t) p row)
    (Table.select t Pred.True)

let plans_agree t p =
  let expected = brute t p in
  Table.select t p = expected
  && Table.count t p = List.length expected
  && Table.exists t p = (expected <> [])
  && Table.select_one t p
     = (match expected with [ r ] -> Some r | _ -> None)

let scenario_gen =
  QCheck.Gen.(
    triple
      (list_size (int_range 0 60) op_gen)
      (list_size (int_range 0 30) op_gen)
      (list_size (int_range 1 8) pred_gen))

let show_scenario (ops1, ops2, preds) =
  Printf.sprintf "ops1=[%s] ops2=[%s] preds=[%s]"
    (String.concat "; " (List.map show_op ops1))
    (String.concat "; " (List.map show_op ops2))
    (String.concat "; " (List.map show_pred preds))

let prop_equivalence =
  QCheck.Test.make ~name:"plans = brute force (incl. mutations + clear)"
    ~count:300
    (QCheck.make ~print:show_scenario scenario_gen)
    (fun (ops1, ops2, preds) ->
      let t = fresh_table () in
      List.iter (apply t) ops1;
      (* cold plans against the populated table *)
      List.for_all (plans_agree t) preds
      (* warm plans after further mutations (index versions bumped) *)
      && begin
           List.iter (apply t) ops2;
           List.for_all (plans_agree t) preds
         end
      (* warm plans after a clear *)
      && begin
           Table.clear t;
           List.for_all (plans_agree t) preds
         end)

(* unindexed table: everything must fall back to scans and still agree *)
let prop_equivalence_unindexed =
  QCheck.Test.make ~name:"plans = brute force (no indexes)" ~count:150
    (QCheck.make ~print:show_scenario scenario_gen)
    (fun (ops1, ops2, preds) ->
      let t = Table.create ~indexed:[] ~clock:(fun () -> 0) schema in
      List.iter (apply t) ops1;
      List.iter (apply t) ops2;
      List.for_all (plans_agree t) preds)

(* --- directed access-path checks ----------------------------------- *)

let test_paths () =
  let t = fresh_table () in
  List.iter
    (fun (k, n) ->
      ignore
        (Table.insert t
           [| Value.Str k; Value.Str k; Value.Int n; Value.Int n;
              Value.Bool (n mod 2 = 0) |]))
    [ ("ab", 1); ("aB", 2); ("bx", 3); ("ca", 10); ("cb", 11) ];
  let check what pred prefix =
    let e = Table.explain t pred in
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s (got %s)" what prefix e)
      true
      (String.length e >= String.length prefix
      && String.sub e 0 (String.length prefix) = prefix)
  in
  check "indexed equality" (Pred.eq_str "k" "ab") "probe(eq(k)";
  check "non-pattern glob" (Pred.Glob ("k", "ab")) "scan";
  check "or of equalities"
    (Pred.disj [ Pred.eq_str "k" "ab"; Pred.eq_str "k" "bx" ])
    "probe(union(";
  check "conjunct picks probe"
    (Pred.And (Pred.Glob ("s", "a*"), Pred.eq_str "k" "ab"))
    "probe(";
  check "prefix glob" (Pred.Glob ("k", "a*")) "scan";
  check "unindexed equality" (Pred.eq_str "s" "ab") "scan";
  check "suffix glob" (Pred.Glob ("k", "*b")) "scan";
  check "glob on int column" (Pred.Glob ("n", "1*")) "scan";
  (* path results spot-checked against brute force *)
  List.iter
    (fun p -> Alcotest.(check bool) (show_pred p) true (plans_agree t p))
    [
      Pred.eq_str "k" "ab";
      Pred.Glob ("k", "a*");
      Pred.disj [ Pred.eq_str "k" "ab"; Pred.eq_str "k" "bx" ];
      Pred.Glob ("n", "1*");
      Pred.Glob ("k", "\xff*");
    ]

let counter name =
  Option.value (Obs.find_counter Obs.default name) ~default:0

let test_cache () =
  let t = fresh_table () in
  ignore
    (Table.insert t
       [| Value.Str "ab"; Value.Str "x"; Value.Int 1; Value.Int 1;
          Value.Bool true |]);
  let hits0 = counter "plan.cache.hits" in
  let misses0 = counter "plan.cache.misses" in
  ignore (Table.select t (Pred.eq_str "k" "ab"));
  (* same shape, different argument: must hit the cached plan *)
  ignore (Table.select t (Pred.eq_str "k" "zz"));
  ignore (Table.count t (Pred.eq_str "k" "bx"));
  Alcotest.(check int) "one miss" 1 (counter "plan.cache.misses" - misses0);
  Alcotest.(check int) "two hits" 2 (counter "plan.cache.hits" - hits0);
  (* the cache is per table: the same shape on a fresh table compiles *)
  ignore (Table.select (fresh_table ()) (Pred.eq_str "k" "ab"));
  Alcotest.(check int) "fresh table misses" 2
    (counter "plan.cache.misses" - misses0);
  Table.reset_plans t;
  ignore (Table.select t (Pred.eq_str "k" "ab"));
  Alcotest.(check int) "reset_plans drops the plan" 3
    (counter "plan.cache.misses" - misses0);
  (* clear + repopulate: the cached plan must see the new contents *)
  Table.clear t;
  ignore
    (Table.insert t
       [| Value.Str "zz"; Value.Str "y"; Value.Int 2; Value.Int 2;
          Value.Bool false |]);
  Alcotest.(check int) "cached plan after clear" 1
    (List.length (Table.select t (Pred.eq_str "k" "zz")));
  Alcotest.(check int) "cached plan sees deletion" 0
    (List.length (Table.select t (Pred.eq_str "k" "ab")))

(* Client-supplied glob patterns are shape parameters: a stream of
   distinct ones compiles one plan, which then answers every pattern
   correctly. *)
let test_glob_patterns_share_plan () =
  let t = fresh_table () in
  ignore
    (Table.insert t
       [| Value.Str "ab"; Value.Str "x"; Value.Int 1; Value.Int 1;
          Value.Bool true |]);
  let glob i = Pred.Glob ("k", Printf.sprintf "a*%d" i) in
  let misses0 = counter "plan.cache.misses" in
  for i = 1 to 2_000 do
    Alcotest.(check int) "no match" 0 (Table.count t (glob i))
  done;
  Alcotest.(check int) "one miss for 2,000 patterns" 1
    (counter "plan.cache.misses" - misses0);
  Alcotest.(check int) "the shared plan matches" 1
    (Table.count t (Pred.Glob ("k", "a*")));
  Alcotest.(check int) "and still no new miss" 1
    (counter "plan.cache.misses" - misses0)

(* Every plan run goes through the cache: over a DCM cycle and a mix of
   named queries, each run (one [plan.path.*] tick) was preceded by one
   cache lookup (a hit or a miss). *)
let test_every_run_cached () =
  let open Workload in
  let tb = Testbed.create ~dcm_every_min:1_000_000 () in
  let paths () =
    List.fold_left (fun a p -> a + counter ("plan.path." ^ p)) 0
      [ "scan"; "probe" ]
  in
  let lookups () = counter "plan.cache.hits" + counter "plan.cache.misses" in
  let paths0 = paths () and lookups0 = lookups () in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let c = Testbed.admin_client tb ~src:ws in
  let login = tb.Testbed.built.Population.logins.(0) in
  List.iter
    (fun (name, args) ->
      ignore (Moira.Mr_client.mr_query_list c ~name args))
    [
      ("get_user_by_login", [ login ]);
      ("get_user_by_login", [ "a*" ]);
      ("get_all_active_logins", []);
      ("get_machine", [ "*" ]);
      ("get_list_info", [ "*" ]);
      ("get_filesys_by_label", [ login ]);
      ("update_user_shell", [ login; "/bin/sh" ]);
    ];
  let runs = paths () - paths0 in
  Alcotest.(check bool) "plans ran" true (runs > 0);
  Alcotest.(check int) "runs = cache lookups" runs (lookups () - lookups0)

let test_split_roundtrip () =
  let p =
    Pred.And
      ( Pred.Or (Pred.eq_str "k" "ab", Pred.Glob ("s", "a*")),
        Pred.Not (Pred.eq_int "n" 7) )
  in
  let shape, params = Pred.split p in
  Alcotest.(check string) "fill inverts split" (show_pred p)
    (show_pred (Pred.fill shape params))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equivalence;
    QCheck_alcotest.to_alcotest prop_equivalence_unindexed;
    Alcotest.test_case "access paths" `Quick test_paths;
    Alcotest.test_case "plan cache" `Quick test_cache;
    Alcotest.test_case "glob patterns share one plan" `Quick
      test_glob_patterns_share_plan;
    Alcotest.test_case "every plan run is cached" `Quick test_every_run_cached;
    Alcotest.test_case "split/fill roundtrip" `Quick test_split_roundtrip;
  ]
