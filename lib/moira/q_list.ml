(* Query handles for lists and membership (paper section 7.0.3). *)

open Relation
open Qlib

let lists (ctx : Query.ctx) = Mdb.table ctx.mdb "list"
let members (ctx : Query.ctx) = Mdb.table ctx.mdb "members"

let list_ace (ctx : Query.ctx) row =
  let tbl = lists ctx in
  {
    Acl.ace_type = Value.str (Table.field tbl row "acl_type");
    ace_id = Value.int (Table.field tbl row "acl_id");
  }

let caller_on_list_ace (ctx : Query.ctx) row =
  ctx.caller <> ""
  && Acl.login_on_ace ctx.mdb (list_ace ctx row) ~login:ctx.caller

let caller_on_list_ace_by_name (ctx : Query.ctx) name =
  match Table.select_one (lists ctx) (Pred.eq_str "name" name) with
  | Some (_, row) -> caller_on_list_ace ctx row
  | None -> false

let render_list_info ctx row =
  let tbl = lists ctx in
  let b col = bool_str (Value.bool (Table.field tbl row col)) in
  [
    Value.str (Table.field tbl row "name");
    b "active"; b "public"; b "hidden"; b "maillist"; b "grouplist";
    string_of_int (Value.int (Table.field tbl row "gid"));
    Value.str (Table.field tbl row "acl_type");
    Acl.ace_name ctx.mdb (list_ace ctx row);
    Value.str (Table.field tbl row "desc");
    string_of_int (Value.int (Table.field tbl row "modtime"));
    Value.str (Table.field tbl row "modby");
    Value.str (Table.field tbl row "modwith");
  ]

(* Resolve a member (type, name) pair to the id stored in the members
   relation. *)
let resolve_member (ctx : Query.ctx) ty name =
  match String.uppercase_ascii ty with
  | "USER" -> (
      match Lookup.user_id ctx.mdb name with
      | Some id -> Ok ("USER", id)
      | None -> Error Mr_err.no_match)
  | "LIST" -> (
      match Lookup.list_id ctx.mdb name with
      | Some id -> Ok ("LIST", id)
      | None -> Error Mr_err.no_match)
  | "STRING" -> Ok ("STRING", Mdb.intern_string ctx.mdb name)
  | _ -> Error Mr_err.typ

let render_member (ctx : Query.ctx) mtype mid =
  match mtype with
  | "USER" ->
      Option.value (Lookup.user_login ctx.mdb mid)
        ~default:(Printf.sprintf "#%d" mid)
  | "LIST" ->
      Option.value (Lookup.list_name ctx.mdb mid)
        ~default:(Printf.sprintf "#%d" mid)
  | _ ->
      Option.value (Mdb.string_of_id ctx.mdb mid)
        ~default:(Printf.sprintf "#%d" mid)

let q_get_list_info =
  {
    Query.name = "get_list_info";
    short = "glin";
    kind = Retrieve;
    inputs = [ "list" ];
    outputs =
      [
        "list"; "active"; "public"; "hidden"; "maillist"; "grouplist"; "gid";
        "ace_type"; "ace_name"; "desc"; "modtime"; "modby"; "modwith";
      ];
    check_access =
      Query.access_acl_or "get_list_info" (fun ctx args ->
          match args with
          | [ name ] when not (Glob.is_pattern name) -> (
              match Table.select_one (lists ctx) (Pred.eq_str "name" name) with
              | Some (_, row) ->
                  (not (Value.bool (Table.field (lists ctx) row "hidden")))
                  || caller_on_list_ace ctx row
              | None -> false)
          | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let on_query_acl =
              ctx.privileged
              || Acl.query_allowed ctx.mdb ~query:"get_list_info"
                   ~login:ctx.caller
            in
            let* () =
              if Glob.is_pattern name && not on_query_acl then
                Error Mr_err.perm
              else Ok ()
            in
            let* rows =
              rows_or_no_match
                (Table.select (lists ctx) (Pred.name_match "name" name))
            in
            let visible =
              List.filter
                (fun (_, row) ->
                  on_query_acl
                  || (not (Value.bool (Table.field (lists ctx) row "hidden")))
                  || caller_on_list_ace ctx row)
                rows
            in
            let* rows =
              match visible with [] -> Error Mr_err.perm | r -> Ok r
            in
            Ok (List.map (fun (_, row) -> render_list_info ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let q_expand_list_names =
  {
    Query.name = "expand_list_names";
    short = "exln";
    kind = Retrieve;
    inputs = [ "list" ];
    outputs = [ "list" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let rows =
              Table.select (lists ctx) (Pred.name_match "name" name)
              |> List.filter (fun (_, row) ->
                     ctx.privileged
                     || not
                          (Value.bool (Table.field (lists ctx) row "hidden"))
                     || caller_on_list_ace ctx row)
            in
            let* rows = rows_or_no_match rows in
            Ok
              (List.map
                 (fun (_, row) ->
                   [ Value.str (Table.field (lists ctx) row "name") ])
                 rows)
        | _ -> Error Mr_err.args);
  }

let parse_list_flags active public hidden maillist group =
  let* active = bool_arg active in
  let* public = bool_arg public in
  let* hidden = bool_arg hidden in
  let* maillist = bool_arg maillist in
  let* group = bool_arg group in
  Ok (active, public, hidden, maillist, group)

let alloc_gid (ctx : Query.ctx) ~group gid_arg =
  if gid_arg = Mrconst.unique_gid then
    if group then Ok (Mdb.alloc_id ctx.mdb "gid") else Ok (-1)
  else int_arg gid_arg

(* The ACE may name the list being created (self-referential): resolve it
   after insertion in that case. *)
let q_add_list =
  {
    Query.name = "add_list";
    short = "alis";
    kind = Append;
    inputs =
      [ "list"; "active"; "public"; "hidden"; "maillist"; "group"; "gid";
        "ace_type"; "ace_name"; "desc" ];
    outputs = [];
    check_access = Query.access_acl "add_list";
    handler =
      (fun ctx args ->
        match args with
        | [ name; active; public; hidden; maillist; group; gid; ace_type;
            ace_name; desc ] ->
            let* () = check_name name in
            if Lookup.list_id ctx.mdb name <> None then Error Mr_err.exists
            else begin
              let* active, public, hidden, maillist, group =
                parse_list_flags active public hidden maillist group
              in
              let* gid = alloc_gid ctx ~group gid in
              let self_ref =
                String.uppercase_ascii ace_type = "LIST" && ace_name = name
              in
              let* ace =
                if self_ref then Ok { Acl.ace_type = "LIST"; ace_id = 0 }
                else Acl.resolve_ace ctx.mdb ~ace_type ~ace_name
              in
              let list_id = Mdb.alloc_id ctx.mdb "list_id" in
              let ace_id = if self_ref then list_id else ace.Acl.ace_id in
              let now = Mdb.now ctx.mdb in
              ignore
                (Table.insert (lists ctx)
                   [|
                     Value.Str name; Value.Int list_id; Value.Bool active;
                     Value.Bool public; Value.Bool hidden;
                     Value.Bool maillist; Value.Bool group; Value.Int gid;
                     Value.Str desc;
                     Value.Str (String.uppercase_ascii ace_type);
                     Value.Int ace_id;
                     Value.Int now;
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_list =
  {
    Query.name = "update_list";
    short = "ulis";
    kind = Update;
    inputs =
      [ "list"; "newname"; "active"; "public"; "hidden"; "maillist"; "group";
        "gid"; "ace_type"; "ace_name"; "desc" ];
    outputs = [];
    check_access =
      Query.access_acl_or "update_list" (fun ctx args ->
          match args with
          | name :: _ -> caller_on_list_ace_by_name ctx name
          | [] -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ name; newname; active; public; hidden; maillist; group; gid;
            ace_type; ace_name; desc ] ->
            let tbl = lists ctx in
            let* row =
              exactly_one ~err:Mr_err.list
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let* () = check_name newname in
            if newname <> name && Lookup.list_id ctx.mdb newname <> None then
              Error Mr_err.not_unique
            else begin
              let* active, public, hidden, maillist, group =
                parse_list_flags active public hidden maillist group
              in
              let* gid = alloc_gid ctx ~group gid in
              let self_ref =
                String.uppercase_ascii ace_type = "LIST"
                && (ace_name = name || ace_name = newname)
              in
              let list_id = Value.int (Table.field tbl row "list_id") in
              let* ace =
                if self_ref then Ok { Acl.ace_type = "LIST"; ace_id = list_id }
                else Acl.resolve_ace ctx.mdb ~ace_type ~ace_name
              in
              ignore
                (Table.set_fields tbl (Pred.eq_str "name" name)
                   ([
                      set "name" newname; setb "active" active;
                      setb "public" public; setb "hidden" hidden;
                      setb "maillist" maillist; setb "grouplist" group;
                      seti "gid" gid;
                      set "acl_type" (String.uppercase_ascii ace_type);
                      seti "acl_id" ace.Acl.ace_id; set "desc" desc;
                    ]
                   @ stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

(* Everything that can reference a list and therefore blocks deletion. *)
let list_references (ctx : Query.ctx) list_id =
  let mdb = ctx.mdb in
  Table.exists (members ctx)
    (Pred.conj
       [ Pred.eq_str "member_type" "LIST"; Pred.eq_int "member_id" list_id ])
  || Table.exists (Mdb.table mdb "list")
       (Pred.conj
          [
            Pred.eq_str "acl_type" "LIST"; Pred.eq_int "acl_id" list_id;
            Pred.Not (Pred.eq_int "list_id" list_id);
          ])
  || Table.exists (Mdb.table mdb "servers")
       (Pred.conj
          [ Pred.eq_str "acl_type" "LIST"; Pred.eq_int "acl_id" list_id ])
  || Table.exists (Mdb.table mdb "filesys") (Pred.eq_int "owners" list_id)
  || Table.exists (Mdb.table mdb "hostaccess")
       (Pred.conj
          [ Pred.eq_str "acl_type" "LIST"; Pred.eq_int "acl_id" list_id ])
  || Table.exists (Mdb.table mdb "capacls") (Pred.eq_int "list_id" list_id)
  || Table.exists (Mdb.table mdb "zephyr")
       (Pred.disj
          (List.concat_map
             (fun prefix ->
               [
                 Pred.conj
                   [
                     Pred.eq_str (prefix ^ "_type") "LIST";
                     Pred.eq_int (prefix ^ "_id") list_id;
                   ];
               ])
             [ "xmt"; "sub"; "iws"; "iui" ]))

let q_delete_list =
  {
    Query.name = "delete_list";
    short = "dlis";
    kind = Delete;
    inputs = [ "list" ];
    outputs = [];
    check_access =
      Query.access_acl_or "delete_list" (fun ctx args ->
          match args with
          | [ name ] -> caller_on_list_ace_by_name ctx name
          | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let tbl = lists ctx in
            let* row =
              exactly_one ~err:Mr_err.list
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let list_id = Value.int (Table.field tbl row "list_id") in
            if
              Table.exists (members ctx) (Pred.eq_int "list_id" list_id)
              || list_references ctx list_id
            then Error Mr_err.in_use
            else begin
              ignore (Table.delete tbl (Pred.eq_str "name" name));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

(* add/delete member: anyone may add or remove *themselves* on a public
   list; otherwise the list's ACE governs. *)
let member_self_rule (ctx : Query.ctx) args =
  match args with
  | [ name; ty; member ] -> (
      match Table.select_one (lists ctx) (Pred.eq_str "name" name) with
      | Some (_, row) ->
          caller_on_list_ace ctx row
          || (Value.bool (Table.field (lists ctx) row "public")
             && String.uppercase_ascii ty = "USER"
             && caller_is ctx member)
      | None -> false)
  | _ -> false

let q_add_member_to_list =
  {
    Query.name = "add_member_to_list";
    short = "amtl";
    kind = Append;
    inputs = [ "list"; "type"; "member" ];
    outputs = [];
    check_access = Query.access_acl_or "add_member_to_list" member_self_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ name; ty; member ] ->
            let tbl = lists ctx in
            let* row =
              exactly_one ~err:Mr_err.list
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let* mtype, mid = resolve_member ctx ty member in
            let list_id = Value.int (Table.field tbl row "list_id") in
            if Acl.is_member_of_list ctx.mdb ~list_id ~mtype ~mid then
              Error Mr_err.exists
            else begin
              ignore
                (Table.insert (members ctx)
                   [| Value.Int list_id; Value.Str mtype; Value.Int mid |]);
              ignore
                (Table.set_fields tbl (Pred.eq_int "list_id" list_id)
                   (stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_member_from_list =
  {
    Query.name = "delete_member_from_list";
    short = "dmfl";
    kind = Delete;
    inputs = [ "list"; "type"; "member" ];
    outputs = [];
    check_access =
      Query.access_acl_or "delete_member_from_list" member_self_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ name; ty; member ] ->
            let tbl = lists ctx in
            let* row =
              exactly_one ~err:Mr_err.list
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let* mtype, mid = resolve_member ctx ty member in
            let list_id = Value.int (Table.field tbl row "list_id") in
            let n =
              Table.delete (members ctx)
                (Pred.conj
                   [
                     Pred.eq_int "list_id" list_id;
                     Pred.eq_str "member_type" mtype;
                     Pred.eq_int "member_id" mid;
                   ])
            in
            if n = 0 then Error Mr_err.no_match
            else begin
              ignore
                (Table.set_fields tbl (Pred.eq_int "list_id" list_id)
                   (stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

(* get_ace_use: everywhere an entity appears as an ACE.  R-types also
   search ACE lists the entity is nested under. *)
let ace_use_hits (ctx : Query.ctx) entities =
  let mdb = ctx.mdb in
  let is_hit ty id = List.mem (ty, id) entities in
  let hits = ref [] in
  let add kind name = hits := (kind, name) :: !hits in
  let scan_table tbl_name kind name_of =
    let tbl = Mdb.table mdb tbl_name in
    List.iter
      (fun (_, row) ->
        let ty = Value.str (Table.field tbl row "acl_type") in
        let id = Value.int (Table.field tbl row "acl_id") in
        if is_hit ty id then add kind (name_of tbl row))
      (Table.select tbl Pred.True)
  in
  scan_table "list" "LIST" (fun tbl row ->
      Value.str (Table.field tbl row "name"));
  scan_table "servers" "SERVICE" (fun tbl row ->
      Value.str (Table.field tbl row "name"));
  scan_table "hostaccess" "HOSTACCESS" (fun tbl row ->
      Option.value
        (Lookup.machine_name mdb (Value.int (Table.field tbl row "mach_id")))
        ~default:"?");
  (* filesystems: owner is a USER ace, owners a LIST ace *)
  let fs = Mdb.table mdb "filesys" in
  List.iter
    (fun (_, row) ->
      if is_hit "USER" (Value.int (Table.field fs row "owner")) then
        add "FILESYS" (Value.str (Table.field fs row "label"));
      if is_hit "LIST" (Value.int (Table.field fs row "owners")) then
        add "FILESYS" (Value.str (Table.field fs row "label")))
    (Table.select fs Pred.True);
  (* queries: capacls point at lists *)
  let cap = Mdb.table mdb "capacls" in
  List.iter
    (fun (_, row) ->
      if is_hit "LIST" (Value.int (Table.field cap row "list_id")) then
        add "QUERY" (Value.str (Table.field cap row "capability")))
    (Table.select cap Pred.True);
  (* zephyr: four ACEs per class *)
  let z = Mdb.table mdb "zephyr" in
  List.iter
    (fun (_, row) ->
      List.iter
        (fun prefix ->
          let ty = Value.str (Table.field z row (prefix ^ "_type")) in
          let id = Value.int (Table.field z row (prefix ^ "_id")) in
          if is_hit ty id then
            add "ZEPHYR" (Value.str (Table.field z row "class")))
        [ "xmt"; "sub"; "iws"; "iui" ])
    (Table.select z Pred.True);
  List.sort_uniq compare (List.rev !hits)

let q_get_ace_use =
  {
    Query.name = "get_ace_use";
    short = "gaus";
    kind = Retrieve;
    inputs = [ "ace_type"; "ace_name" ];
    outputs = [ "object_type"; "object_name" ];
    check_access =
      Query.access_acl_or "get_ace_use" (fun ctx args ->
          match args with
          | [ ty; name ] -> (
              match String.uppercase_ascii ty with
              | "USER" | "RUSER" -> caller_is ctx name
              | "LIST" | "RLIST" -> caller_on_list_ace_by_name ctx name
              | _ -> false)
          | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ ty; name ] ->
            let mdb = ctx.mdb in
            let* entities =
              match String.uppercase_ascii ty with
              | "USER" -> (
                  match Lookup.user_id mdb name with
                  | Some id -> Ok [ ("USER", id) ]
                  | None -> Error Mr_err.no_match)
              | "RUSER" -> (
                  match Lookup.user_id mdb name with
                  | Some id ->
                      let lists =
                        Acl.containing_lists mdb ~mtype:"USER" ~mid:id
                      in
                      Ok
                        (("USER", id)
                        :: List.map (fun l -> ("LIST", l)) lists)
                  | None -> Error Mr_err.no_match)
              | "LIST" -> (
                  match Lookup.list_id mdb name with
                  | Some id -> Ok [ ("LIST", id) ]
                  | None -> Error Mr_err.no_match)
              | "RLIST" -> (
                  match Lookup.list_id mdb name with
                  | Some id ->
                      let lists =
                        Acl.containing_lists mdb ~mtype:"LIST" ~mid:id
                      in
                      Ok (List.map (fun l -> ("LIST", l)) (id :: lists))
                  | None -> Error Mr_err.no_match)
              | _ -> Error Mr_err.typ
            in
            let hits = ace_use_hits ctx entities in
            let* hits =
              match hits with [] -> Error Mr_err.no_match | h -> Ok h
            in
            Ok (List.map (fun (k, n) -> [ k; n ]) hits)
        | _ -> Error Mr_err.args);
  }

let q_qualified_get_lists =
  {
    Query.name = "qualified_get_lists";
    short = "qgli";
    kind = Retrieve;
    inputs = [ "active"; "public"; "hidden"; "maillist"; "group" ];
    outputs = [ "list" ];
    check_access =
      Query.access_acl_or "qualified_get_lists" (fun ctx args ->
          (* anyone may ask for active, non-hidden lists *)
          ctx.caller <> ""
          &&
          match args with
          | [ active; _; hidden; _; _ ] ->
              String.uppercase_ascii active = "TRUE"
              && String.uppercase_ascii hidden = "FALSE"
          | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ active; public; hidden; maillist; group ] ->
            let* active = trilean_arg active in
            let* public = trilean_arg public in
            let* hidden = trilean_arg hidden in
            let* maillist = trilean_arg maillist in
            let* group = trilean_arg group in
            let flag col = function
              | `True -> Pred.eq_bool col true
              | `False -> Pred.eq_bool col false
              | `Dontcare -> Pred.True
            in
            let pred =
              Pred.conj
                [
                  flag "active" active; flag "public" public;
                  flag "hidden" hidden; flag "maillist" maillist;
                  flag "grouplist" group;
                ]
            in
            let* rows =
              rows_or_no_match (Table.select (lists ctx) pred)
            in
            Ok
              (List.map
                 (fun (_, row) ->
                   [ Value.str (Table.field (lists ctx) row "name") ])
                 rows)
        | _ -> Error Mr_err.args);
  }

let visible_list_rule (ctx : Query.ctx) args =
  match args with
  | name :: _ -> (
      match Table.select_one (lists ctx) (Pred.eq_str "name" name) with
      | Some (_, row) ->
          (not (Value.bool (Table.field (lists ctx) row "hidden")))
          || caller_on_list_ace ctx row
      | None -> false)
  | [] -> false

let q_get_members_of_list =
  {
    Query.name = "get_members_of_list";
    short = "gmol";
    kind = Retrieve;
    inputs = [ "list" ];
    outputs = [ "type"; "value" ];
    check_access = Query.access_acl_or "get_members_of_list" visible_list_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let tbl = lists ctx in
            let* row =
              exactly_one ~err:Mr_err.list
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let list_id = Value.int (Table.field tbl row "list_id") in
            let ms =
              Table.select (members ctx) (Pred.eq_int "list_id" list_id)
            in
            Ok
              (List.map
                 (fun (_, m) ->
                   let mtype = Value.str m.(1) and mid = Value.int m.(2) in
                   [ mtype; render_member ctx mtype mid ])
                 ms)
        | _ -> Error Mr_err.args);
  }

let q_get_lists_of_member =
  {
    Query.name = "get_lists_of_member";
    short = "glom";
    kind = Retrieve;
    inputs = [ "type"; "member" ];
    outputs = [ "list"; "active"; "public"; "hidden"; "maillist"; "group" ];
    check_access =
      Query.access_acl_or "get_lists_of_member" (fun ctx args ->
          match args with
          | [ ty; member ] -> (
              match String.uppercase_ascii ty with
              | "USER" | "RUSER" -> caller_is ctx member
              | "LIST" | "RLIST" -> caller_on_list_ace_by_name ctx member
              | _ -> false)
          | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ ty; member ] ->
            let recursive, base_ty =
              let up = String.uppercase_ascii ty in
              if String.length up > 0 && up.[0] = 'R' then
                (true, String.sub up 1 (String.length up - 1))
              else (false, up)
            in
            let* mtype, mid = resolve_member ctx base_ty member in
            let direct =
              Table.select (members ctx)
                (Pred.conj
                   [
                     Pred.eq_str "member_type" mtype;
                     Pred.eq_int "member_id" mid;
                   ])
              |> List.map (fun (_, m) -> Value.int m.(0))
            in
            let ids =
              if recursive then
                Acl.containing_lists ctx.mdb ~mtype ~mid
              else List.sort_uniq Int.compare direct
            in
            let* ids =
              match ids with [] -> Error Mr_err.no_match | l -> Ok l
            in
            let tbl = lists ctx in
            Ok
              (List.filter_map
                 (fun list_id ->
                   match Lookup.list_row ctx.mdb list_id with
                   | None -> None
                   | Some row ->
                       let b col =
                         bool_str (Value.bool (Table.field tbl row col))
                       in
                       Some
                         [
                           Value.str (Table.field tbl row "name");
                           b "active"; b "public"; b "hidden"; b "maillist";
                           b "grouplist";
                         ])
                 ids)
        | _ -> Error Mr_err.args);
  }

let q_count_members_of_list =
  {
    Query.name = "count_members_of_list";
    short = "cmol";
    kind = Retrieve;
    inputs = [ "list" ];
    outputs = [ "count" ];
    check_access =
      Query.access_acl_or "count_members_of_list" visible_list_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let tbl = lists ctx in
            let* row =
              exactly_one ~err:Mr_err.list
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let list_id = Value.int (Table.field tbl row "list_id") in
            let n = Table.count (members ctx) (Pred.eq_int "list_id" list_id) in
            Ok [ [ string_of_int n ] ]
        | _ -> Error Mr_err.args);
  }

let queries =
  [
    q_get_list_info; q_expand_list_names; q_add_list; q_update_list;
    q_delete_list; q_add_member_to_list; q_delete_member_from_list;
    q_get_ace_use; q_qualified_get_lists; q_get_members_of_list;
    q_get_lists_of_member; q_count_members_of_list;
  ]
