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

(* The active users as a (login, users_id, uid) array sorted by login,
   the spine of every login-ordered file.  Keyed on the four columns it
   reads: an edit to any other user field (shell, finger, pobox...)
   leaves the projection warm, so only genuinely structural changes pay
   the scan-and-sort. *)
let actives_memo : (int, memo_key * (string * int * int) array) Hashtbl.t =
  Hashtbl.create 8

let sorted_active_users mdb =
  let tbl = users_table mdb in
  let key = memo_key tbl [ "login"; "users_id"; "uid"; "status" ] in
  let uid = Table.uid tbl in
  match Hashtbl.find_opt actives_memo uid with
  | Some (k, a) when k = key -> a
  | _ ->
      let loginc = col tbl "login" and idc = col tbl "users_id" in
      let uidc = col tbl "uid" in
      let acc = ref [] in
      active_users tbl (fun row ->
          acc :=
            (Value.str (loginc row), Value.int (idc row), Value.int (uidc row))
            :: !acc);
      let a = Array.of_list !acc in
      Array.sort (fun (a, _, _) (b, _, _) -> String.compare a b) a;
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

(* The one group pass behind grplist.db and the NFS credentials files.
   Instead of asking the closure for each user's containing lists, walk
   the active group lists in (gid, list_id) order and record each
   membership as the group's index under the member's slot; the first
   group named after the login is the user's own and goes first.  The
   memberships sit in two int arrays (an offset per user, a group index
   per membership), not in per-user lists: the pass spans a whole
   render, so what it holds is promoted, and a full render would pay
   for it in major-GC work on the cycles that follow. *)
let group_iter mdb f =
  let closure = Moira.Closure.get mdb in
  let entries = sorted_active_users mdb in
  let n = Array.length entries in
  let max_id = Array.fold_left (fun m (_, id, _) -> max m id) 0 entries in
  (* users_id values are dense, so a users_id -> slot array beats a
     hashtable keyed on users_id *)
  let slot = Array.make (max_id + 1) (-1) in
  Array.iteri (fun i (_, id, _) -> slot.(id) <- i) entries;
  let groups = Array.of_list (active_grouplists mdb) in
  let pairs =
    Array.map (fun (gid, _, name) -> (name ^ ":" ^ string_of_int gid, gid)) groups
  in
  let name k = let _, _, name = groups.(k) in name in
  let members k visit =
    let _, list_id, _ = groups.(k) in
    Moira.Closure.iter_users closure ~list_id (fun id ->
        if id >= 0 && id <= max_id && slot.(id) >= 0 then visit slot.(id))
  in
  (* count each user's groups, turn the counts into end offsets, then
     fill from the last group back: user i's groups, ascending, end up
     at index.(start.(i)) .. index.(start.(i + 1) - 1) *)
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun k _ -> members k (fun i -> start.(i) <- start.(i) + 1)) groups;
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let index = Array.make start.(n) 0 in
  for k = Array.length groups - 1 downto 0 do
    members k (fun i ->
        start.(i) <- start.(i) - 1;
        index.(start.(i)) <- k)
  done;
  Array.iteri
    (fun i (login, users_id, uid) ->
      let lo = start.(i) and hi = start.(i + 1) in
      let own = ref lo in
      while !own < hi && name index.(!own) <> login do
        incr own
      done;
      let rest = ref [] in
      for j = hi - 1 downto lo do
        if j <> !own then rest := pairs.(index.(j)) :: !rest
      done;
      f ~login ~users_id ~uid
        (if !own < hi then pairs.(index.(!own)) :: !rest else !rest))
    entries

(* One user's grplist own/frags, replicating [group_iter]'s order and
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
   list, per user, then the own group (named after the login) first and
   the rest in gid order.  Tests hold {!group_iter} to it; benchmarks
   measure the speedup against it. *)
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
  let own, rest =
    Moira.Acl.containing_lists_naive mdb ~mtype:"USER" ~mid:users_id
    |> List.filter_map group_info
    |> List.partition (fun (name, _) -> name = login)
  in
  own @ List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) rest

(* Run a builder against a fresh sink and take the finished document —
   the streaming replacement for "build a Buffer, take its contents".
   Peak transient memory is one chunk, not the file. *)
let emit f =
  let w = Sink.create () in
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
