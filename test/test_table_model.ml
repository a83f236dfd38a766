(* Model-based testing of the relational engine: random sequences of
   insert/update/delete are applied both to a Table (with indexes) and to
   a naive list-of-rows model; every observation must agree.  This is
   the strongest check that the hash indexes never drift from the rows
   (the failure mode that corrupted real INGRES databases and motivated
   the paper's distrust of binary checkpoints). *)

open Relation

let schema =
  Schema.make ~name:"m"
    [
      { Schema.cname = "k"; ctype = Value.TStr };
      { Schema.cname = "v"; ctype = Value.TInt };
    ]

type op =
  | Insert of string * int
  | Set_v of string * int (* update v where k = key *)
  | Rename of string * string (* update k where k = old *)
  | Delete of string
  | Delete_v of int

let op_gen =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "k%d") (int_range 0 8) in
  frequency
    [
      (4, map2 (fun k v -> Insert (k, v)) key (int_range 0 100));
      (2, map2 (fun k v -> Set_v (k, v)) key (int_range 0 100));
      (1, map2 (fun a b -> Rename (a, b)) key key);
      (2, map (fun k -> Delete k) key);
      (1, map (fun v -> Delete_v v) (int_range 0 100));
    ]

let show_op = function
  | Insert (k, v) -> Printf.sprintf "Insert(%s,%d)" k v
  | Set_v (k, v) -> Printf.sprintf "Set_v(%s,%d)" k v
  | Rename (a, b) -> Printf.sprintf "Rename(%s,%s)" a b
  | Delete k -> Printf.sprintf "Delete(%s)" k
  | Delete_v v -> Printf.sprintf "Delete_v(%d)" v

(* the model: an assoc list in insertion order *)
let model_apply model = function
  | Insert (k, v) -> model @ [ (k, v) ]
  | Set_v (k, v) ->
      List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) model
  | Rename (a, b) ->
      List.map (fun (k', v') -> if k' = a then (b, v') else (k', v')) model
  | Delete k -> List.filter (fun (k', _) -> k' <> k) model
  | Delete_v v -> List.filter (fun (_, v') -> v' <> v) model

let table_apply t = function
  | Insert (k, v) ->
      ignore (Table.insert t [| Value.Str k; Value.Int v |])
  | Set_v (k, v) ->
      ignore (Table.set_fields t (Pred.eq_str "k" k) [ ("v", Value.Int v) ])
  | Rename (a, b) ->
      ignore (Table.set_fields t (Pred.eq_str "k" a) [ ("k", Value.Str b) ])
  | Delete k -> ignore (Table.delete t (Pred.eq_str "k" k))
  | Delete_v v -> ignore (Table.delete t (Pred.eq_int "v" v))

let observe_table t =
  List.map
    (fun (_, row) -> (Value.str row.(0), Value.int row.(1)))
    (Table.select t Pred.True)

let agree ops ~indexed =
  let t = Table.create ~indexed ~clock:(fun () -> 0) schema in
  let model =
    List.fold_left
      (fun model op ->
        table_apply t op;
        model_apply model op)
      [] ops
  in
  (* full contents agree (same multiset in same insertion order) *)
  observe_table t = model
  (* every per-key query agrees *)
  && List.for_all
       (fun k ->
         let key = Printf.sprintf "k%d" k in
         Table.count t (Pred.eq_str "k" key)
         = List.length (List.filter (fun (k', _) -> k' = key) model))
       (List.init 10 Fun.id)
  (* every count by the unindexed column agrees *)
  && List.for_all
       (fun (_, v) ->
         Table.count t (Pred.eq_int "v" v)
         = List.length (List.filter (fun (_, v') -> v' = v) model))
       model

let prop_indexed =
  QCheck.Test.make ~name:"table-vs-model (indexed)" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) op_gen))
    (fun ops -> agree ops ~indexed:[ "k" ])

let prop_unindexed_same_as_indexed =
  QCheck.Test.make ~name:"table: indexed = unindexed results" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) op_gen))
    (fun ops ->
      let run indexed =
        let t = Table.create ~indexed ~clock:(fun () -> 0) schema in
        List.iter (table_apply t) ops;
        observe_table t
      in
      run [ "k" ] = run [])

(* glob vs a naive reference implementation *)
let rec ref_glob p s pi si =
  if pi = String.length p then si = String.length s
  else
    match p.[pi] with
    | '*' ->
        ref_glob p s (pi + 1) si
        || (si < String.length s && ref_glob p s pi (si + 1))
    | '?' -> si < String.length s && ref_glob p s (pi + 1) (si + 1)
    | c -> si < String.length s && s.[si] = c && ref_glob p s (pi + 1) (si + 1)

let small_alpha = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '*'; '?' ]) (int_range 0 8))

let prop_glob_matches_reference =
  QCheck.Test.make ~name:"glob vs reference matcher" ~count:2000
    (QCheck.make
       ~print:(fun (p, s) -> Printf.sprintf "pattern=%S subject=%S" p s)
       QCheck.Gen.(pair small_alpha
                     (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 10))))
    (fun (p, s) -> Glob.matches ~pattern:p s = ref_glob p s 0 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_indexed;
    QCheck_alcotest.to_alcotest prop_unindexed_same_as_indexed;
    QCheck_alcotest.to_alcotest prop_glob_matches_reference;
  ]
