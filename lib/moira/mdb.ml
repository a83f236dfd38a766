open Relation

type t = {
  db : Db.t;
  journal : Journal.t;
  locks : Lock.t;
  (* two-way mirror of the strings relation, so generator-time
     [intern_string]/[string_of_id] are a hashtable probe instead of a
     [Table.select_one] round-trip per call.  [str_gen] snapshots the
     table's modification count; any out-of-band write to the strings
     relation (restore, direct query) bumps it and drops the mirror. *)
  str_fwd : (string, int) Hashtbl.t;
  str_rev : (int, string) Hashtbl.t;
  mutable str_gen : int;
}

let create ~clock =
  {
    db = Schema_def.create_db ~clock;
    journal = Journal.create ();
    locks = Lock.create ();
    str_fwd = Hashtbl.create 256;
    str_rev = Hashtbl.create 256;
    str_gen = -1;
  }

let db t = t.db
let journal t = t.journal
let locks t = t.locks
let now t = Db.now t.db
let table t name = Db.table t.db name

let get_value t name =
  match Table.select_one (table t "values") (Pred.eq_str "name" name) with
  | Some (_, row) -> Some (Value.int row.(1))
  | None -> None

let set_value t name v =
  let tbl = table t "values" in
  let n =
    Table.set_fields tbl (Pred.eq_str "name" name) [ ("value", Value.Int v) ]
  in
  if n = 0 then
    ignore (Table.insert tbl [| Value.Str name; Value.Int v |])

let alloc_id t hint =
  match get_value t hint with
  | Some v ->
      set_value t hint (v + 1);
      v
  | None ->
      (* Unknown hint: start a fresh counter high enough to be unique. *)
      set_value t hint 100_001;
      100_000

(* Monotone change count of the strings relation: bumps on every append,
   update and delete (clear counts its rows as deletes), so a stale
   mirror can't survive any write path. *)
let strings_gen tbl =
  let s = Table.stats tbl in
  s.Table.appends + s.Table.updates + s.Table.deletes

let sync_strings t =
  let tbl = table t "strings" in
  let gen = strings_gen tbl in
  if t.str_gen <> gen then begin
    Hashtbl.reset t.str_fwd;
    Hashtbl.reset t.str_rev;
    Table.iter tbl (fun _ row ->
        let id = Value.int row.(0) and s = Value.str row.(1) in
        Hashtbl.replace t.str_fwd s id;
        Hashtbl.replace t.str_rev id s);
    t.str_gen <- gen
  end

let find_string t s =
  sync_strings t;
  Hashtbl.find_opt t.str_fwd s

let intern_string t s =
  match find_string t s with
  | Some id -> id
  | None ->
      let id = alloc_id t "string_id" in
      ignore (Table.insert (table t "strings") [| Value.Int id; Value.Str s |]);
      (* fold the new pair into the mirror rather than rebuilding it *)
      Hashtbl.replace t.str_fwd s id;
      Hashtbl.replace t.str_rev id s;
      t.str_gen <- strings_gen (table t "strings");
      id

let string_of_id t id =
  sync_strings t;
  Hashtbl.find_opt t.str_rev id

let valid_type t ~field v =
  Table.exists (table t "alias")
    (Pred.conj
       [ Pred.eq_str "name" field; Pred.eq_str "type" "TYPE";
         Pred.eq_str "trans" v ])

let type_values t ~field =
  Table.select (table t "alias")
    (Pred.conj [ Pred.eq_str "name" field; Pred.eq_str "type" "TYPE" ])
  |> List.map (fun (_, row) -> Value.str row.(2))

let stamp t ~who ~client ~prefix =
  [
    (prefix ^ "modtime", Value.Int (now t));
    (prefix ^ "modby", Value.Str who);
    (prefix ^ "modwith", Value.Str client);
  ]

let sync_tblstats t =
  let stats_tbl = table t "tblstats" in
  List.iter
    (fun (name, tbl) ->
      if name <> "tblstats" then begin
        let s = Table.stats tbl in
        ignore
          (Table.set_fields stats_tbl (Pred.eq_str "table" name)
             [
               ("appends", Value.Int s.Table.appends);
               ("updates", Value.Int s.Table.updates);
               ("deletes", Value.Int s.Table.deletes);
               ("modtime", Value.Int s.Table.modtime);
             ])
      end)
    (Db.tables t.db)
