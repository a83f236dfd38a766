open Relation

let short_host name =
  let name = String.lowercase_ascii name in
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let users_table mdb = Moira.Mdb.table mdb "users"

let col tbl cname =
  let i = Schema.index_of (Table.schema tbl) cname in
  fun row -> row.(i)

(* One no-copy pass with a hoisted projector instead of [Table.select]
   with a [Pred]: the predicate machinery re-resolves the column and
   copies every row, which adds up in per-generation loops. *)
let active_users tbl f =
  let status = col tbl "status" in
  Table.iter tbl (fun _ row -> if Value.int (status row) = 1 then f row)

(* Memo keys for projections of a table: the versions of exactly the
   columns the projection reads when they are all indexed — so updates
   to unrelated fields keep the memo warm — falling back to the table's
   coarse stats counters otherwise. *)
type memo_key =
  | Cols of int list
  | Coarse of (int * int * int * int * int)

let memo_key tbl cols =
  let rec versions acc = function
    | [] -> Some (List.rev acc)
    | c :: rest -> (
        match Table.column_version tbl c with
        | Some v -> versions (v :: acc) rest
        | None -> None)
  in
  match versions [] cols with
  | Some vs -> Cols vs
  | None ->
      let s = Table.stats tbl in
      Coarse (s.Table.appends, s.Table.updates, s.Table.deletes,
              s.Table.modtime, s.Table.del_time)

(* Render memo keys into a composable fingerprint string, for callers
   (the keyed incremental builder) that need one equality-comparable
   digest over several tables' relevant columns. *)
let fingerprint mdb specs =
  String.concat ";"
    (List.map
       (fun (tname, cols) ->
         match memo_key (Moira.Mdb.table mdb tname) cols with
         | Cols vs ->
             tname ^ ":c" ^ String.concat "," (List.map string_of_int vs)
         | Coarse (a, b, c, d, e) ->
             Printf.sprintf "%s:s%d,%d,%d,%d,%d" tname a b c d e)
       specs)

(* id -> name projections, memoized per column versions like
   [Closure.get], so the maps survive across parts and generations until
   one of the projected columns actually changes.  Ids are allocated
   sequentially by the query layer, so a dense array beats a hashtable
   both to build and to probe; "" marks an absent id. *)
let id_map_memo :
    (int * string * string, memo_key * string array) Hashtbl.t =
  Hashtbl.create 16

let id_name_map tbl ~id ~name =
  let key = memo_key tbl [ id; name ] in
  let slot = (Table.uid tbl, id, name) in
  match Hashtbl.find_opt id_map_memo slot with
  | Some (k, a) when k = key -> a
  | prev ->
      let idc = col tbl id and namec = col tbl name in
      let top = ref (-1) in
      Table.iter tbl (fun _ row ->
          let i = Value.int (idc row) in
          if i > !top then top := i);
      let a = Array.make (!top + 1) "" in
      Table.iter tbl (fun _ row ->
          let i = Value.int (idc row) in
          if i >= 0 then a.(i) <- Value.str (namec row));
      if prev = None && Hashtbl.length id_map_memo >= 64 then
        Hashtbl.reset id_map_memo;
      Hashtbl.replace id_map_memo slot (key, a);
      a

let name_of a i =
  if i >= 0 && i < Array.length a && a.(i) <> "" then Some a.(i) else None

(* The active users as a (login, users_id) array sorted by login, the
   spine of every login-ordered file.  Keyed on the three columns it
   reads: an edit to any other user field (shell, finger, pobox...)
   leaves the projection warm, so only genuinely structural changes pay
   the scan-and-sort. *)
let actives_memo : (int, memo_key * (string * int) array) Hashtbl.t =
  Hashtbl.create 8

let sorted_active_users mdb =
  let tbl = users_table mdb in
  let key = memo_key tbl [ "login"; "users_id"; "status" ] in
  let uid = Table.uid tbl in
  match Hashtbl.find_opt actives_memo uid with
  | Some (k, a) when k = key -> a
  | _ ->
      let loginc = col tbl "login" and uidc = col tbl "users_id" in
      let acc = ref [] in
      active_users tbl (fun row ->
          acc := (Value.str (loginc row), Value.int (uidc row)) :: !acc);
      let a = Array.of_list !acc in
      Array.sort (fun (a, _) (b, _) -> String.compare a b) a;
      Hashtbl.replace actives_memo uid (key, a);
      a

(* Active group lists as (gid, list_id, name) sorted by (gid, list_id).
   The list columns it reads are not all indexed, so the memo key is the
   table's coarse stats, which every membership edit moves (it stamps
   the list row's modtime).  A moved key therefore re-scans the table in
   rowid order and compares against the previous scan: only a real
   change of the projection re-sorts it and takes a new [version], the
   digest grplist.db's keyed builder fingerprints. *)
type grouplists = {
  gl_key : memo_key;
  gl_raw : (int * int * string) list;  (* rowid order *)
  gl_sorted : (int * int * string) list;
  gl_version : int;
}

let grouplists_memo : (int, grouplists) Hashtbl.t = Hashtbl.create 8
let grouplists_versions = ref 0

let grouplists mdb =
  let tbl = Moira.Mdb.table mdb "list" in
  let key = memo_key tbl [ "gid"; "list_id"; "name"; "grouplist"; "active" ] in
  let uid = Table.uid tbl in
  let prev = Hashtbl.find_opt grouplists_memo uid in
  match prev with
  | Some g when g.gl_key = key -> g
  | _ ->
      let gidc = col tbl "gid" and idc = col tbl "list_id" in
      let namec = col tbl "name" in
      let grouplistc = col tbl "grouplist" and activec = col tbl "active" in
      let scan f =
        Table.iter tbl (fun _ row ->
            if Value.bool (grouplistc row) && Value.bool (activec row) then
              f (Value.int (gidc row)) (Value.int (idc row))
                (Value.str (namec row)))
      in
      (* compare in place first: a stamp-only change allocates nothing *)
      let unchanged p =
        let rest = ref p.gl_raw and same = ref true in
        scan (fun gid id name ->
            match !rest with
            | (g, l, n) :: tl when !same && g = gid && l = id && n = name ->
                rest := tl
            | _ -> same := false);
        !same && !rest = []
      in
      let g =
        match prev with
        | Some p when unchanged p -> { p with gl_key = key }
        | _ ->
            let raw = ref [] in
            scan (fun gid id name -> raw := (gid, id, name) :: !raw);
            let raw = List.rev !raw in
            incr grouplists_versions;
            {
              gl_key = key;
              gl_raw = raw;
              gl_sorted =
                List.sort
                  (fun (g1, l1, _) (g2, l2, _) ->
                    match Int.compare g1 g2 with
                    | 0 -> Int.compare l1 l2
                    | c -> c)
                  raw;
              gl_version = !grouplists_versions;
            }
      in
      Hashtbl.replace grouplists_memo uid g;
      g

let active_grouplists mdb = (grouplists mdb).gl_sorted
let grouplists_version mdb = (grouplists mdb).gl_version

(* Group resolution for grplist/credentials lines.  One closure (shared
   via the memo in [Closure.get]) answers every user's containing lists;
   the (name, gid) projection per list is memoized for the generation. *)
type groups = {
  closure : Moira.Closure.t;
  lists_tbl : Table.t;
  l_name : Value.t array -> Value.t;
  l_gid : Value.t array -> Value.t;
  l_grouplist : Value.t array -> Value.t;
  l_active : Value.t array -> Value.t;
  mdb : Moira.Mdb.t;
  info : (int, (string * int) option) Hashtbl.t;
}

let groups mdb =
  let lists_tbl = Moira.Mdb.table mdb "list" in
  {
    closure = Moira.Closure.get mdb;
    lists_tbl;
    l_name = col lists_tbl "name";
    l_gid = col lists_tbl "gid";
    l_grouplist = col lists_tbl "grouplist";
    l_active = col lists_tbl "active";
    mdb;
    info = Hashtbl.create 256;
  }

let group_info g list_id =
  match Hashtbl.find_opt g.info list_id with
  | Some cached -> cached
  | None ->
      let v =
        match Moira.Lookup.list_row g.mdb list_id with
        | Some row when Value.bool (g.l_grouplist row)
                        && Value.bool (g.l_active row) ->
            Some (Value.str (g.l_name row), Value.int (g.l_gid row))
        | _ -> None
      in
      Hashtbl.replace g.info list_id v;
      v

let order_pairs ~login all =
  let own, rest = List.partition (fun (name, _) -> name = login) all in
  own @ List.sort (fun (_, a) (_, b) -> Int.compare a b) rest

let group_pairs g ~users_id ~login =
  Moira.Closure.containing_lists g.closure ~mtype:"USER" ~mid:users_id
  |> List.filter_map (group_info g)
  |> order_pairs ~login

(* Bulk form of [group_pairs], inverted: instead of asking the closure
   for each user's containing lists and projecting them, walk the active
   group lists once in (gid, list_id) order — the order [order_pairs]'s
   stable gid sort produces from [containing_lists]'s ascending ids —
   and append each group's rendered "name:gid" fragment to every active
   member's accumulator.  One pass over the membership pairs replaces
   users x (set materialization + projection + sort). *)
let grplist_iter mdb emit =
  let closure = Moira.Closure.get mdb in
  let entries = sorted_active_users mdb in
  let n = Array.length entries in
  let max_uid = Array.fold_left (fun m (_, uid) -> max m uid) 0 entries in
  (* users_id values are dense, so per-user state lives in arrays indexed
     by a uid -> slot map rather than a hashtable keyed on uid. *)
  let slot = Array.make (max_uid + 1) (-1) in
  let owns = Array.make (max n 1) "" in
  let frags = Array.make (max n 1) [] in
  Array.iteri (fun i (_, uid) -> slot.(uid) <- i) entries;
  List.iter
    (fun (gid, list_id, name) ->
      let frag = name ^ ":" ^ string_of_int gid in
      Moira.Closure.iter_users closure ~list_id (fun uid ->
          if uid >= 0 && uid <= max_uid then
            let i = slot.(uid) in
            if i >= 0 then
              if name = fst entries.(i) && owns.(i) = "" then owns.(i) <- frag
              else frags.(i) <- frag :: frags.(i)))
    (active_grouplists mdb);
  Array.iteri
    (fun i (login, _) ->
      if owns.(i) <> "" || frags.(i) <> [] then
        emit ~login ~own:owns.(i) ~frags:(List.rev frags.(i)))
    entries

(* One user's grplist own/frags, replicating [grplist_iter]'s order and
   tie-breaking EXACTLY (the keyed splicer patches single lines into a
   bulk-built file, so "almost the same order" is not enough):
   containing lists arrive in ascending list_id, the stable gid sort
   yields (gid, list_id) order — the bulk iteration order — and only the
   FIRST login-named fragment claims the own slot. *)
let group_fragments mdb ~users_id ~login =
  let closure = Moira.Closure.get mdb in
  let lists_tbl = Moira.Mdb.table mdb "list" in
  let l_name = col lists_tbl "name" and l_gid = col lists_tbl "gid" in
  let l_grouplist = col lists_tbl "grouplist" in
  let l_active = col lists_tbl "active" in
  let info list_id =
    match Moira.Lookup.list_row mdb list_id with
    | Some row when Value.bool (l_grouplist row) && Value.bool (l_active row)
      ->
        Some (Value.str (l_name row), Value.int (l_gid row))
    | _ -> None
  in
  let pairs =
    Moira.Closure.containing_lists closure ~mtype:"USER" ~mid:users_id
    |> List.filter_map info
    |> List.stable_sort (fun (_, g1) (_, g2) -> Int.compare g1 g2)
  in
  let own = ref "" and frags = ref [] in
  List.iter
    (fun (name, gid) ->
      let frag = name ^ ":" ^ string_of_int gid in
      if name = login && !own = "" then own := frag
      else frags := frag :: !frags)
    pairs;
  (!own, List.rev !frags)

(* Reference implementation (pre-closure): one BFS with one select per
   list, per user.  Benchmarks measure the speedup against it. *)
let group_pairs_naive mdb ~users_id ~login =
  let lists_tbl = Moira.Mdb.table mdb "list" in
  let group_info list_id =
    match Moira.Lookup.list_row mdb list_id with
    | Some row
      when Value.bool (Table.field lists_tbl row "grouplist")
           && Value.bool (Table.field lists_tbl row "active") ->
        Some
          ( Value.str (Table.field lists_tbl row "name"),
            Value.int (Table.field lists_tbl row "gid") )
    | _ -> None
  in
  Moira.Acl.containing_lists_naive mdb ~mtype:"USER" ~mid:users_id
  |> List.filter_map group_info
  |> order_pairs ~login

(* Run a builder against a fresh sink and take the finished document —
   the streaming replacement for "build a Buffer, take its contents".
   Peak transient memory is one chunk, not the file. *)
let emit ?hint f =
  let w = Sink.create ?hint () in
  f w;
  Sink.contents w

let sorted_lines lines =
  match List.sort String.compare lines with
  | [] -> Sink.empty
  | sorted ->
      emit (fun w ->
          List.iter
            (fun line ->
              Sink.add_string w line;
              Sink.add_char w '\n')
            sorted)
