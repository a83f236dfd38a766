(* Query handles for machines and clusters (paper section 7.0.2). *)

open Relation
open Qlib

let machines (ctx : Query.ctx) = Mdb.table ctx.mdb "machine"
let clusters (ctx : Query.ctx) = Mdb.table ctx.mdb "cluster"
let mcmap (ctx : Query.ctx) = Mdb.table ctx.mdb "mcmap"
let svc (ctx : Query.ctx) = Mdb.table ctx.mdb "svc"

let machine_in_use (ctx : Query.ctx) mach_id =
  let mdb = ctx.mdb in
  Table.exists (Mdb.table mdb "users") (Pred.eq_int "pop_id" mach_id)
  || Table.exists (Mdb.table mdb "filesys") (Pred.eq_int "mach_id" mach_id)
  || Table.exists (Mdb.table mdb "printcap") (Pred.eq_int "mach_id" mach_id)
  || Table.exists (Mdb.table mdb "hostaccess") (Pred.eq_int "mach_id" mach_id)
  || Table.exists (Mdb.table mdb "serverhosts") (Pred.eq_int "mach_id" mach_id)
  || Table.exists (Mdb.table mdb "nfsphys") (Pred.eq_int "mach_id" mach_id)

let q_get_machine =
  {
    Query.name = "get_machine";
    short = "gmac";
    kind = Retrieve;
    inputs = [ "name" ];
    outputs = [ "name"; "type"; "modtime"; "modby"; "modwith" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let pred = Pred.name_match ~case_fold:true "name" name in
            let* rows = rows_or_no_match (Table.select (machines ctx) pred) in
            Ok
              (List.map
                 (fun (_, r) ->
                   project (machines ctx)
                     [ "name"; "type"; "modtime"; "modby"; "modwith" ]
                     r)
                 rows)
        | _ -> Error Mr_err.args);
  }

let q_add_machine =
  {
    Query.name = "add_machine";
    short = "amac";
    kind = Append;
    inputs = [ "name"; "type" ];
    outputs = [];
    check_access = Query.access_acl "add_machine";
    handler =
      (fun ctx args ->
        match args with
        | [ name; ty ] ->
            let name = Lookup.canon_host name in
            let* () = check_name name in
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"mach_type" ty then Ok ()
              else Error Mr_err.typ
            in
            if Lookup.machine_id ctx.mdb name <> None then
              Error Mr_err.not_unique
            else begin
              ignore
                (Table.insert (machines ctx)
                   ([| Value.Str name;
                       Value.Int (Mdb.alloc_id ctx.mdb "mach_id");
                       Value.Str ty;
                       Value.Int (Mdb.now ctx.mdb);
                       Value.Str
                         (if ctx.caller = "" then "(direct)" else ctx.caller);
                       Value.Str ctx.client;
                    |]));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_machine =
  {
    Query.name = "update_machine";
    short = "umac";
    kind = Update;
    inputs = [ "name"; "newname"; "type" ];
    outputs = [];
    check_access = Query.access_acl "update_machine";
    handler =
      (fun ctx args ->
        match args with
        | [ name; newname; ty ] ->
            let name = Lookup.canon_host name in
            let newname = Lookup.canon_host newname in
            let* () = check_name newname in
            let tbl = machines ctx in
            let* _ =
              exactly_one ~err:Mr_err.machine
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"mach_type" ty then Ok ()
              else Error Mr_err.typ
            in
            if newname <> name && Lookup.machine_id ctx.mdb newname <> None
            then Error Mr_err.not_unique
            else begin
              ignore
                (Table.set_fields tbl (Pred.eq_str "name" name)
                   ([ set "name" newname; set "type" ty ]
                   @ stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_machine =
  {
    Query.name = "delete_machine";
    short = "dmac";
    kind = Delete;
    inputs = [ "name" ];
    outputs = [];
    check_access = Query.access_acl "delete_machine";
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let name = Lookup.canon_host name in
            let tbl = machines ctx in
            let* row =
              exactly_one ~err:Mr_err.machine
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let mach_id = Value.int (Table.field tbl row "mach_id") in
            if machine_in_use ctx mach_id then Error Mr_err.in_use
            else begin
              ignore (Table.delete tbl (Pred.eq_str "name" name));
              ignore
                (Table.delete (mcmap ctx) (Pred.eq_int "mach_id" mach_id));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let cluster_cols = [ "name"; "desc"; "location"; "modtime"; "modby"; "modwith" ]

let q_get_cluster =
  {
    Query.name = "get_cluster";
    short = "gclu";
    kind = Retrieve;
    inputs = [ "name" ];
    outputs = cluster_cols;
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let* rows =
              rows_or_no_match
                (Table.select (clusters ctx) (Pred.name_match "name" name))
            in
            Ok
              (List.map (fun (_, r) -> project (clusters ctx) cluster_cols r)
                 rows)
        | _ -> Error Mr_err.args);
  }

let q_add_cluster =
  {
    Query.name = "add_cluster";
    short = "aclu";
    kind = Append;
    inputs = [ "name"; "desc"; "location" ];
    outputs = [];
    check_access = Query.access_acl "add_cluster";
    handler =
      (fun ctx args ->
        match args with
        | [ name; desc; location ] ->
            let* () = check_name name in
            if Lookup.cluster_id ctx.mdb name <> None then
              Error Mr_err.not_unique
            else begin
              ignore
                (Table.insert (clusters ctx)
                   [| Value.Str name;
                      Value.Int (Mdb.alloc_id ctx.mdb "clu_id");
                      Value.Str desc; Value.Str location;
                      Value.Int (Mdb.now ctx.mdb);
                      Value.Str
                        (if ctx.caller = "" then "(direct)" else ctx.caller);
                      Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_cluster =
  {
    Query.name = "update_cluster";
    short = "uclu";
    kind = Update;
    inputs = [ "name"; "newname"; "desc"; "location" ];
    outputs = [];
    check_access = Query.access_acl "update_cluster";
    handler =
      (fun ctx args ->
        match args with
        | [ name; newname; desc; location ] ->
            let tbl = clusters ctx in
            let* _ =
              exactly_one ~err:Mr_err.cluster
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let* () = check_name newname in
            if newname <> name && Lookup.cluster_id ctx.mdb newname <> None
            then Error Mr_err.not_unique
            else begin
              ignore
                (Table.set_fields tbl (Pred.eq_str "name" name)
                   ([ set "name" newname; set "desc" desc;
                      set "location" location ]
                   @ stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_cluster =
  {
    Query.name = "delete_cluster";
    short = "dclu";
    kind = Delete;
    inputs = [ "name" ];
    outputs = [];
    check_access = Query.access_acl "delete_cluster";
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let tbl = clusters ctx in
            let* row =
              exactly_one ~err:Mr_err.cluster
                (Table.select tbl (Pred.eq_str "name" name))
            in
            let clu_id = Value.int (Table.field tbl row "clu_id") in
            if Table.exists (mcmap ctx) (Pred.eq_int "clu_id" clu_id) then
              Error Mr_err.in_use
            else begin
              ignore (Table.delete (svc ctx) (Pred.eq_int "clu_id" clu_id));
              ignore (Table.delete tbl (Pred.eq_str "name" name));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_get_machine_to_cluster_map =
  {
    Query.name = "get_machine_to_cluster_map";
    short = "gmcm";
    kind = Retrieve;
    inputs = [ "machine"; "cluster" ];
    outputs = [ "machine"; "cluster" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ machine; cluster ] ->
            let mdb = ctx.mdb in
            let pairs =
              Table.select (mcmap ctx) Pred.True
              |> List.filter_map (fun (_, row) ->
                     let mach = Value.int row.(0) and clu = Value.int row.(1) in
                     match
                       (Lookup.machine_name mdb mach,
                        Lookup.cluster_name mdb clu)
                     with
                     | Some mname, Some cname -> Some (mname, cname)
                     | _ -> None)
              |> List.filter (fun (mname, cname) ->
                     Glob.matches ~case_fold:true ~pattern:machine mname
                     && Glob.matches ~pattern:cluster cname)
            in
            let* pairs =
              match pairs with [] -> Error Mr_err.no_match | p -> Ok p
            in
            Ok (List.map (fun (m, c) -> [ m; c ]) pairs)
        | _ -> Error Mr_err.args);
  }

let resolve_pair (ctx : Query.ctx) machine cluster =
  let* mach_id =
    match Lookup.machine_id ctx.mdb machine with
    | Some id -> Ok id
    | None -> Error Mr_err.machine
  in
  let* clu_id =
    match Lookup.cluster_id ctx.mdb cluster with
    | Some id -> Ok id
    | None -> Error Mr_err.cluster
  in
  Ok (mach_id, clu_id)

let q_add_machine_to_cluster =
  {
    Query.name = "add_machine_to_cluster";
    short = "amtc";
    kind = Append;
    inputs = [ "machine"; "cluster" ];
    outputs = [];
    check_access = Query.access_acl "add_machine_to_cluster";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; cluster ] ->
            let* mach_id, clu_id = resolve_pair ctx machine cluster in
            if
              Table.exists (mcmap ctx)
                (Pred.conj
                   [ Pred.eq_int "mach_id" mach_id;
                     Pred.eq_int "clu_id" clu_id ])
            then Error Mr_err.exists
            else begin
              ignore
                (Table.insert (mcmap ctx)
                   [| Value.Int mach_id; Value.Int clu_id |]);
              ignore
                (Table.set_fields (machines ctx)
                   (Pred.eq_int "mach_id" mach_id)
                   (stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_delete_machine_from_cluster =
  {
    Query.name = "delete_machine_from_cluster";
    short = "dmfc";
    kind = Delete;
    inputs = [ "machine"; "cluster" ];
    outputs = [];
    check_access = Query.access_acl "delete_machine_from_cluster";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; cluster ] ->
            let* mach_id, clu_id = resolve_pair ctx machine cluster in
            let n =
              Table.delete (mcmap ctx)
                (Pred.conj
                   [ Pred.eq_int "mach_id" mach_id;
                     Pred.eq_int "clu_id" clu_id ])
            in
            if n = 0 then Error Mr_err.no_match
            else begin
              ignore
                (Table.set_fields (machines ctx)
                   (Pred.eq_int "mach_id" mach_id)
                   (stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_get_cluster_data =
  {
    Query.name = "get_cluster_data";
    short = "gcld";
    kind = Retrieve;
    inputs = [ "cluster"; "label" ];
    outputs = [ "cluster"; "label"; "data" ];
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ cluster; label ] ->
            let mdb = ctx.mdb in
            let rows =
              Table.select (svc ctx) Pred.True
              |> List.filter_map (fun (_, row) ->
                     match Lookup.cluster_name mdb (Value.int row.(0)) with
                     | Some cname ->
                         Some (cname, Value.str row.(1), Value.str row.(2))
                     | None -> None)
              |> List.filter (fun (cname, lbl, _) ->
                     Glob.matches ~pattern:cluster cname
                     && Glob.matches ~pattern:label lbl)
            in
            let* rows =
              match rows with [] -> Error Mr_err.no_match | r -> Ok r
            in
            Ok (List.map (fun (c, l, d) -> [ c; l; d ]) rows)
        | _ -> Error Mr_err.args);
  }

let q_add_cluster_data =
  {
    Query.name = "add_cluster_data";
    short = "acld";
    kind = Append;
    inputs = [ "cluster"; "label"; "data" ];
    outputs = [];
    check_access = Query.access_acl "add_cluster_data";
    handler =
      (fun ctx args ->
        match args with
        | [ cluster; label; data ] ->
            let* clu_id =
              match Lookup.cluster_id ctx.mdb cluster with
              | Some id -> Ok id
              | None -> Error Mr_err.cluster
            in
            let* () =
              if Mdb.valid_type ctx.mdb ~field:"slabel" label then Ok ()
              else Error Mr_err.typ
            in
            ignore
              (Table.insert (svc ctx)
                 [| Value.Int clu_id; Value.Str label; Value.Str data |]);
            ignore
              (Table.set_fields (clusters ctx) (Pred.eq_int "clu_id" clu_id)
                 (stamp_fields ctx ()));
            Ok []
        | _ -> Error Mr_err.args);
  }

let q_delete_cluster_data =
  {
    Query.name = "delete_cluster_data";
    short = "dcld";
    kind = Delete;
    inputs = [ "cluster"; "label"; "data" ];
    outputs = [];
    check_access = Query.access_acl "delete_cluster_data";
    handler =
      (fun ctx args ->
        match args with
        | [ cluster; label; data ] ->
            let* clu_id =
              match Lookup.cluster_id ctx.mdb cluster with
              | Some id -> Ok id
              | None -> Error Mr_err.cluster
            in
            let n =
              Table.delete (svc ctx)
                (Pred.conj
                   [ Pred.eq_int "clu_id" clu_id;
                     Pred.eq_str "serv_label" label;
                     Pred.eq_str "serv_cluster" data ])
            in
            if n = 0 then Error Mr_err.not_unique
            else begin
              ignore
                (Table.set_fields (clusters ctx) (Pred.eq_int "clu_id" clu_id)
                   (stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let queries =
  [
    q_get_machine; q_add_machine; q_update_machine; q_delete_machine;
    q_get_cluster; q_add_cluster; q_update_cluster; q_delete_cluster;
    q_get_machine_to_cluster_map; q_add_machine_to_cluster;
    q_delete_machine_from_cluster; q_get_cluster_data; q_add_cluster_data;
    q_delete_cluster_data;
  ]
