(* Query handles for filesystems, NFS partitions and quotas (section
   7.0.5). *)

open Relation
open Qlib

let filesys (ctx : Query.ctx) = Mdb.table ctx.mdb "filesys"
let nfsphys (ctx : Query.ctx) = Mdb.table ctx.mdb "nfsphys"
let nfsquota (ctx : Query.ctx) = Mdb.table ctx.mdb "nfsquota"

let fs_cols_out =
  [
    "name"; "fstype"; "machine"; "packname"; "mountpoint"; "access";
    "comments"; "owner"; "owners"; "create"; "lockertype"; "modtime";
    "modby"; "modwith";
  ]

let render_fs ctx row =
  let tbl = filesys ctx in
  let mdb = ctx.Query.mdb in
  let s col = Value.str (Table.field tbl row col) in
  let i col = Value.int (Table.field tbl row col) in
  [
    s "label"; s "type";
    Option.value (Lookup.machine_name mdb (i "mach_id")) ~default:"?";
    s "name"; s "mount"; s "access"; s "comments";
    Option.value (Lookup.user_login mdb (i "owner")) ~default:"?";
    Option.value (Lookup.list_name mdb (i "owners")) ~default:"?";
    bool_str (Value.bool (Table.field tbl row "createflg"));
    s "lockertype";
    string_of_int (i "modtime"); s "modby"; s "modwith";
  ]

let q_get_filesys_by_label =
  {
    Query.name = "get_filesys_by_label";
    short = "gfsl";
    kind = Retrieve;
    inputs = [ "label" ];
    outputs = fs_cols_out;
    check_access = Query.access_anyone;
    handler =
      (fun ctx args ->
        match args with
        | [ label ] ->
            let* rows =
              rows_or_no_match
                (Table.select (filesys ctx) (Pred.name_match "label" label))
            in
            Ok (List.map (fun (_, row) -> render_fs ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let q_get_filesys_by_machine =
  {
    Query.name = "get_filesys_by_machine";
    short = "gfsm";
    kind = Retrieve;
    inputs = [ "machine" ];
    outputs = fs_cols_out;
    check_access = Query.access_acl "get_filesys_by_machine";
    handler =
      (fun ctx args ->
        match args with
        | [ machine ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let rows =
              Table.select (filesys ctx) (Pred.eq_int "mach_id" mach_id)
            in
            Ok (List.map (fun (_, row) -> render_fs ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let find_nfsphys (ctx : Query.ctx) mach_id dir =
  Table.select_one (nfsphys ctx)
    (Pred.conj [ Pred.eq_int "mach_id" mach_id; Pred.eq_str "dir" dir ])

let q_get_filesys_by_nfsphys =
  {
    Query.name = "get_filesys_by_nfsphys";
    short = "gfsn";
    kind = Retrieve;
    inputs = [ "machine"; "partition" ];
    outputs = fs_cols_out;
    check_access = Query.access_acl "get_filesys_by_nfsphys";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; partition ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let* phys =
              match find_nfsphys ctx mach_id partition with
              | Some (_, row) ->
                  Ok (Value.int (Table.field (nfsphys ctx) row "nfsphys_id"))
              | None -> Error Mr_err.no_match
            in
            let rows =
              Table.select (filesys ctx) (Pred.eq_int "phys_id" phys)
            in
            Ok (List.map (fun (_, row) -> render_fs ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let q_get_filesys_by_group =
  {
    Query.name = "get_filesys_by_group";
    short = "gfsg";
    kind = Retrieve;
    inputs = [ "list" ];
    outputs = fs_cols_out;
    check_access =
      Query.access_acl_or "get_filesys_by_group" (fun ctx args ->
          match args with
          | [ name ] -> (
              match
                (Lookup.list_id ctx.mdb name, Qlib.caller_id ctx)
              with
              | Some list_id, Some users_id ->
                  Acl.user_in_list ctx.mdb ~list_id ~users_id
              | _ -> false)
          | _ -> false);
    handler =
      (fun ctx args ->
        match args with
        | [ name ] ->
            let* list_id =
              match Lookup.list_id ctx.mdb name with
              | Some id -> Ok id
              | None -> Error Mr_err.list
            in
            let rows =
              Table.select (filesys ctx) (Pred.eq_int "owners" list_id)
            in
            Ok (List.map (fun (_, row) -> render_fs ctx row) rows)
        | _ -> Error Mr_err.args);
  }

(* Shared validation for add_filesys / update_filesys.  For NFS the
   packname must name an exported partition on that machine and access
   must be r or w; RVD filesystems are free-form. *)
let validate_fs (ctx : Query.ctx) ~fstype ~machine ~packname ~access ~owner
    ~owners ~create ~lockertype =
  let fstype = String.uppercase_ascii fstype in
  let* () =
    if Mdb.valid_type ctx.mdb ~field:"filesys" fstype then Ok ()
    else Error Mr_err.fstype
  in
  let* () =
    if Mdb.valid_type ctx.mdb ~field:"lockertype" lockertype then Ok ()
    else Error Mr_err.typ
  in
  let* mach_id =
    match Lookup.machine_id ctx.mdb machine with
    | Some id -> Ok id
    | None -> Error Mr_err.machine
  in
  let* owner_id =
    match Lookup.user_id ctx.mdb owner with
    | Some id -> Ok id
    | None -> Error Mr_err.user
  in
  let* owners_id =
    match Lookup.list_id ctx.mdb owners with
    | Some id -> Ok id
    | None -> Error Mr_err.list
  in
  let* create = bool_arg create in
  let* phys_id =
    if fstype = "NFS" then begin
      (* packname is "<partition-dir>/<subdir>"; find the partition that
         prefixes it. *)
      let parts =
        Table.select (nfsphys ctx) (Pred.eq_int "mach_id" mach_id)
      in
      let matching =
        List.filter
          (fun (_, row) ->
            let dir = Value.str (Table.field (nfsphys ctx) row "dir") in
            String.length packname >= String.length dir
            && String.sub packname 0 (String.length dir) = dir)
          parts
      in
      match matching with
      | (_, row) :: _ ->
          Ok (Value.int (Table.field (nfsphys ctx) row "nfsphys_id"))
      | [] -> Error Mr_err.nfs
    end
    else Ok 0
  in
  let* () =
    if fstype = "NFS" && access <> "r" && access <> "w" then
      Error Mr_err.filesys_access
    else Ok ()
  in
  Ok (fstype, mach_id, owner_id, owners_id, create, phys_id)

let q_add_filesys =
  {
    Query.name = "add_filesys";
    short = "afil";
    kind = Append;
    inputs =
      [ "label"; "fstype"; "machine"; "packname"; "mountpoint"; "access";
        "comments"; "owner"; "owners"; "create"; "lockertype" ];
    outputs = [];
    check_access = Query.access_acl "add_filesys";
    handler =
      (fun ctx args ->
        match args with
        | [ label; fstype; machine; packname; mountpoint; access; comments;
            owner; owners; create; lockertype ] ->
            let* () = check_name label in
            if Table.exists (filesys ctx) (Pred.eq_str "label" label) then
              Error Mr_err.filesys_exists
            else begin
              let* fstype, mach_id, owner_id, owners_id, create, phys_id =
                validate_fs ctx ~fstype ~machine ~packname ~access ~owner
                  ~owners ~create ~lockertype
              in
              ignore
                (Table.insert (filesys ctx)
                   [|
                     Value.Str label; Value.Int 0;
                     Value.Int (Mdb.alloc_id ctx.mdb "filsys_id");
                     Value.Int phys_id; Value.Str fstype; Value.Int mach_id;
                     Value.Str packname; Value.Str mountpoint;
                     Value.Str access; Value.Str comments;
                     Value.Int owner_id; Value.Int owners_id;
                     Value.Bool create; Value.Str lockertype;
                     Value.Int (Mdb.now ctx.mdb);
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_filesys =
  {
    Query.name = "update_filesys";
    short = "ufil";
    kind = Update;
    inputs =
      [ "label"; "newname"; "fstype"; "machine"; "packname"; "mountpoint";
        "access"; "comments"; "owner"; "owners"; "create"; "lockertype" ];
    outputs = [];
    check_access = Query.access_acl "update_filesys";
    handler =
      (fun ctx args ->
        match args with
        | [ label; newname; fstype; machine; packname; mountpoint; access;
            comments; owner; owners; create; lockertype ] ->
            let tbl = filesys ctx in
            let* _ =
              exactly_one ~err:Mr_err.filesys
                (Table.select tbl (Pred.eq_str "label" label))
            in
            let* () = check_name newname in
            if
              newname <> label
              && Table.exists tbl (Pred.eq_str "label" newname)
            then Error Mr_err.not_unique
            else begin
              let* fstype, mach_id, owner_id, owners_id, create, phys_id =
                validate_fs ctx ~fstype ~machine ~packname ~access ~owner
                  ~owners ~create ~lockertype
              in
              ignore
                (Table.set_fields tbl (Pred.eq_str "label" label)
                   ([
                      set "label" newname; set "type" fstype;
                      seti "mach_id" mach_id; set "name" packname;
                      set "mount" mountpoint; set "access" access;
                      set "comments" comments; seti "owner" owner_id;
                      seti "owners" owners_id; setb "createflg" create;
                      set "lockertype" lockertype; seti "phys_id" phys_id;
                    ]
                   @ stamp_fields ctx ()));
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

(* Deleting a filesystem releases its quotas and returns the allocation
   to the partition. *)
let q_delete_filesys =
  {
    Query.name = "delete_filesys";
    short = "dfil";
    kind = Delete;
    inputs = [ "label" ];
    outputs = [];
    check_access = Query.access_acl "delete_filesys";
    handler =
      (fun ctx args ->
        match args with
        | [ label ] ->
            let tbl = filesys ctx in
            let* row =
              exactly_one ~err:Mr_err.filesys
                (Table.select tbl (Pred.eq_str "label" label))
            in
            let filsys_id = Value.int (Table.field tbl row "filsys_id") in
            let phys_id = Value.int (Table.field tbl row "phys_id") in
            let quotas =
              Table.select (nfsquota ctx) (Pred.eq_int "filsys_id" filsys_id)
            in
            let total =
              List.fold_left
                (fun acc (_, q) ->
                  acc + Value.int (Table.field (nfsquota ctx) q "quota"))
                0 quotas
            in
            ignore
              (Table.delete (nfsquota ctx) (Pred.eq_int "filsys_id" filsys_id));
            if total > 0 then
              ignore
                (Table.update (nfsphys ctx) (Pred.eq_int "nfsphys_id" phys_id)
                   (fun r ->
                     let idx =
                       Relation.Schema.index_of
                         (Table.schema (nfsphys ctx)) "allocated"
                     in
                     r.(idx) <- Value.Int (Value.int r.(idx) - total);
                     r));
            ignore (Table.delete tbl (Pred.eq_str "label" label));
            Ok []
        | _ -> Error Mr_err.args);
  }

let phys_cols =
  [ "dir"; "device"; "status"; "allocated"; "size"; "modtime"; "modby";
    "modwith" ]

let render_phys ctx row =
  let tbl = nfsphys ctx in
  Option.value
    (Lookup.machine_name ctx.Query.mdb
       (Value.int (Table.field tbl row "mach_id")))
    ~default:"?"
  :: project tbl phys_cols row

let q_get_all_nfsphys =
  {
    Query.name = "get_all_nfsphys";
    short = "ganf";
    kind = Retrieve;
    inputs = [];
    outputs = "machine" :: phys_cols;
    check_access = Query.access_acl "get_all_nfsphys";
    handler =
      (fun ctx _ ->
        Ok
          (List.map
             (fun (_, row) -> render_phys ctx row)
             (Table.select (nfsphys ctx) Pred.True)));
  }

let q_get_nfsphys =
  {
    Query.name = "get_nfsphys";
    short = "gnfp";
    kind = Retrieve;
    inputs = [ "machine"; "dir" ];
    outputs = "machine" :: phys_cols;
    check_access = Query.access_acl "get_nfsphys";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; dir ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let rows =
              Table.select (nfsphys ctx)
                (Pred.conj
                   [ Pred.eq_int "mach_id" mach_id;
                     Pred.name_match "dir" dir ])
            in
            let* rows = rows_or_no_match rows in
            Ok (List.map (fun (_, row) -> render_phys ctx row) rows)
        | _ -> Error Mr_err.args);
  }

let q_add_nfsphys =
  {
    Query.name = "add_nfsphys";
    short = "anfp";
    kind = Append;
    inputs = [ "machine"; "dir"; "device"; "status"; "allocated"; "size" ];
    outputs = [];
    check_access = Query.access_acl "add_nfsphys";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; dir; device; status; allocated; size ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let* status = int_arg status in
            let* allocated = int_arg allocated in
            let* size = int_arg size in
            if find_nfsphys ctx mach_id dir <> None then Error Mr_err.exists
            else begin
              ignore
                (Table.insert (nfsphys ctx)
                   [|
                     Value.Int (Mdb.alloc_id ctx.mdb "nfsphys_id");
                     Value.Int mach_id; Value.Str dir; Value.Str device;
                     Value.Int status; Value.Int allocated; Value.Int size;
                     Value.Int (Mdb.now ctx.mdb);
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_nfsphys =
  {
    Query.name = "update_nfsphys";
    short = "unfp";
    kind = Update;
    inputs = [ "machine"; "dir"; "device"; "status"; "allocated"; "size" ];
    outputs = [];
    check_access = Query.access_acl "update_nfsphys";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; dir; device; status; allocated; size ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let* status = int_arg status in
            let* allocated = int_arg allocated in
            let* size = int_arg size in
            (match find_nfsphys ctx mach_id dir with
            | None -> Error Mr_err.nfsphys
            | Some _ ->
                ignore
                  (Table.set_fields (nfsphys ctx)
                     (Pred.conj
                        [ Pred.eq_int "mach_id" mach_id;
                          Pred.eq_str "dir" dir ])
                     ([
                        set "device" device; seti "status" status;
                        seti "allocated" allocated; seti "size" size;
                      ]
                     @ stamp_fields ctx ()));
                Ok [])
        | _ -> Error Mr_err.args);
  }

let q_adjust_nfsphys_allocation =
  {
    Query.name = "adjust_nfsphys_allocation";
    short = "ajnf";
    kind = Update;
    inputs = [ "machine"; "dir"; "delta" ];
    outputs = [];
    check_access = Query.access_acl "adjust_nfsphys_allocation";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; dir; delta ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let* delta = int_arg delta in
            (match find_nfsphys ctx mach_id dir with
            | None -> Error Mr_err.nfsphys
            | Some (_, row) ->
                let cur =
                  Value.int (Table.field (nfsphys ctx) row "allocated")
                in
                ignore
                  (Table.set_fields (nfsphys ctx)
                     (Pred.conj
                        [ Pred.eq_int "mach_id" mach_id;
                          Pred.eq_str "dir" dir ])
                     (seti "allocated" (cur + delta) :: stamp_fields ctx ()));
                Ok [])
        | _ -> Error Mr_err.args);
  }

let q_delete_nfsphys =
  {
    Query.name = "delete_nfsphys";
    short = "dnfp";
    kind = Delete;
    inputs = [ "machine"; "dir" ];
    outputs = [];
    check_access = Query.access_acl "delete_nfsphys";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; dir ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            (match find_nfsphys ctx mach_id dir with
            | None -> Error Mr_err.nfsphys
            | Some (_, row) ->
                let phys_id =
                  Value.int (Table.field (nfsphys ctx) row "nfsphys_id")
                in
                if
                  Table.exists (filesys ctx) (Pred.eq_int "phys_id" phys_id)
                then Error Mr_err.in_use
                else begin
                  ignore
                    (Table.delete (nfsphys ctx)
                       (Pred.eq_int "nfsphys_id" phys_id));
                  Ok []
                end)
        | _ -> Error Mr_err.args);
  }

(* Quotas. *)

let fs_of_quota ctx qrow =
  let fsid = Value.int (Table.field (nfsquota ctx) qrow "filsys_id") in
  Table.select_one (filesys ctx) (Pred.eq_int "filsys_id" fsid)

let render_quota ctx qrow =
  let qt = nfsquota ctx in
  let mdb = ctx.Query.mdb in
  let login =
    Option.value
      (Lookup.user_login mdb (Value.int (Table.field qt qrow "users_id")))
      ~default:"?"
  in
  let label, machine =
    match fs_of_quota ctx qrow with
    | Some (_, fs) ->
        ( Value.str (Table.field (filesys ctx) fs "label"),
          Option.value
            (Lookup.machine_name mdb
               (Value.int (Table.field (filesys ctx) fs "mach_id")))
            ~default:"?" )
    | None -> ("?", "?")
  in
  let dir =
    match
      Table.select_one (nfsphys ctx)
        (Pred.eq_int "nfsphys_id"
           (Value.int (Table.field qt qrow "phys_id")))
    with
    | Some (_, p) -> Value.str (Table.field (nfsphys ctx) p "dir")
    | None -> "?"
  in
  [
    label; login;
    string_of_int (Value.int (Table.field qt qrow "quota"));
    dir; machine;
    string_of_int (Value.int (Table.field qt qrow "modtime"));
    Value.str (Table.field qt qrow "modby");
    Value.str (Table.field qt qrow "modwith");
  ]

let fs_owner_rule (ctx : Query.ctx) args =
  match args with
  | label :: _ -> (
      match
        Table.select_one (filesys ctx) (Pred.eq_str "label" label)
      with
      | Some (_, fs) -> (
          match Qlib.caller_id ctx with
          | Some uid ->
              Value.int (Table.field (filesys ctx) fs "owner") = uid
              || Acl.user_in_list ctx.mdb
                   ~list_id:(Value.int (Table.field (filesys ctx) fs "owners"))
                   ~users_id:uid
          | None -> false)
      | None -> false)
  | [] -> false

let q_get_nfs_quota =
  {
    Query.name = "get_nfs_quota";
    short = "gnfq";
    kind = Retrieve;
    inputs = [ "filesys"; "login" ];
    outputs =
      [ "filesys"; "login"; "quota"; "directory"; "machine"; "modtime";
        "modby"; "modwith" ];
    check_access = Query.access_acl_or "get_nfs_quota" fs_owner_rule;
    handler =
      (fun ctx args ->
        match args with
        | [ fs_label; login ] ->
            let* users_id =
              match Lookup.user_id ctx.mdb login with
              | Some id -> Ok id
              | None -> Error Mr_err.user
            in
            let fs_ids =
              Table.select (filesys ctx) (Pred.name_match "label" fs_label)
              |> List.map (fun (_, fs) ->
                     Value.int (Table.field (filesys ctx) fs "filsys_id"))
            in
            let quotas =
              Table.select (nfsquota ctx) (Pred.eq_int "users_id" users_id)
              |> List.filter (fun (_, q) ->
                     List.mem
                       (Value.int (Table.field (nfsquota ctx) q "filsys_id"))
                       fs_ids)
            in
            let* quotas = rows_or_no_match quotas in
            Ok (List.map (fun (_, q) -> render_quota ctx q) quotas)
        | _ -> Error Mr_err.args);
  }

let q_get_nfs_quotas_by_partition =
  {
    Query.name = "get_nfs_quotas_by_partition";
    short = "gnqp";
    kind = Retrieve;
    inputs = [ "machine"; "dir" ];
    outputs = [ "filesys"; "login"; "quota"; "directory"; "machine" ];
    check_access = Query.access_acl "get_nfs_quotas_by_partition";
    handler =
      (fun ctx args ->
        match args with
        | [ machine; dir ] ->
            let* mach_id =
              match Lookup.machine_id ctx.mdb machine with
              | Some id -> Ok id
              | None -> Error Mr_err.machine
            in
            let phys_ids =
              Table.select (nfsphys ctx)
                (Pred.conj
                   [ Pred.eq_int "mach_id" mach_id;
                     Pred.name_match "dir" dir ])
              |> List.map (fun (_, p) ->
                     Value.int (Table.field (nfsphys ctx) p "nfsphys_id"))
            in
            let quotas =
              Table.select (nfsquota ctx) Pred.True
              |> List.filter (fun (_, q) ->
                     List.mem
                       (Value.int (Table.field (nfsquota ctx) q "phys_id"))
                       phys_ids)
            in
            let* quotas = rows_or_no_match quotas in
            Ok
              (List.map
                 (fun (_, q) ->
                   match render_quota ctx q with
                   | [ a; b; c; d; e; _; _; _ ] -> [ a; b; c; d; e ]
                   | other -> other)
                 quotas)
        | _ -> Error Mr_err.args);
  }

let resolve_quota_target (ctx : Query.ctx) fs_label login =
  let* fs =
    match
      Table.select (filesys ctx) (Pred.eq_str "label" fs_label)
    with
    | [ (_, fs) ] -> Ok fs
    | _ -> Error Mr_err.filesys
  in
  let* users_id =
    match Lookup.user_id ctx.mdb login with
    | Some id -> Ok id
    | None -> Error Mr_err.user
  in
  Ok (fs, users_id)

let adjust_allocation ctx phys_id delta =
  ignore
    (Table.update (nfsphys ctx) (Pred.eq_int "nfsphys_id" phys_id) (fun r ->
         let idx =
           Relation.Schema.index_of (Table.schema (nfsphys ctx)) "allocated"
         in
         r.(idx) <- Value.Int (Value.int r.(idx) + delta);
         r))

let q_add_nfs_quota =
  {
    Query.name = "add_nfs_quota";
    short = "anfq";
    kind = Append;
    inputs = [ "filesys"; "login"; "quota" ];
    outputs = [];
    check_access = Query.access_acl "add_nfs_quota";
    handler =
      (fun ctx args ->
        match args with
        | [ fs_label; login; quota ] ->
            let* fs, users_id = resolve_quota_target ctx fs_label login in
            let* quota = int_arg quota in
            let filsys_id =
              Value.int (Table.field (filesys ctx) fs "filsys_id")
            in
            let phys_id = Value.int (Table.field (filesys ctx) fs "phys_id") in
            if
              Table.exists (nfsquota ctx)
                (Pred.conj
                   [ Pred.eq_int "users_id" users_id;
                     Pred.eq_int "filsys_id" filsys_id ])
            then Error Mr_err.exists
            else begin
              ignore
                (Table.insert (nfsquota ctx)
                   [|
                     Value.Int users_id; Value.Int filsys_id;
                     Value.Int phys_id; Value.Int quota;
                     Value.Int (Mdb.now ctx.mdb);
                     Value.Str
                       (if ctx.caller = "" then "(direct)" else ctx.caller);
                     Value.Str ctx.client;
                   |]);
              adjust_allocation ctx phys_id quota;
              Ok []
            end
        | _ -> Error Mr_err.args);
  }

let q_update_nfs_quota =
  {
    Query.name = "update_nfs_quota";
    short = "unfq";
    kind = Update;
    inputs = [ "filesys"; "login"; "quota" ];
    outputs = [];
    check_access = Query.access_acl "update_nfs_quota";
    handler =
      (fun ctx args ->
        match args with
        | [ fs_label; login; quota ] ->
            let* fs, users_id = resolve_quota_target ctx fs_label login in
            let* quota = int_arg quota in
            let filsys_id =
              Value.int (Table.field (filesys ctx) fs "filsys_id")
            in
            let phys_id = Value.int (Table.field (filesys ctx) fs "phys_id") in
            let pred =
              Pred.conj
                [ Pred.eq_int "users_id" users_id;
                  Pred.eq_int "filsys_id" filsys_id ]
            in
            (match Table.select_one (nfsquota ctx) pred with
            | None -> Error Mr_err.no_match
            | Some (_, old) ->
                let old_quota =
                  Value.int (Table.field (nfsquota ctx) old "quota")
                in
                ignore
                  (Table.set_fields (nfsquota ctx) pred
                     (seti "quota" quota :: stamp_fields ctx ()));
                adjust_allocation ctx phys_id (quota - old_quota);
                Ok [])
        | _ -> Error Mr_err.args);
  }

let q_delete_nfs_quota =
  {
    Query.name = "delete_nfs_quota";
    short = "dnfq";
    kind = Delete;
    inputs = [ "filesys"; "login" ];
    outputs = [];
    check_access = Query.access_acl "delete_nfs_quota";
    handler =
      (fun ctx args ->
        match args with
        | [ fs_label; login ] ->
            let* fs, users_id = resolve_quota_target ctx fs_label login in
            let filsys_id =
              Value.int (Table.field (filesys ctx) fs "filsys_id")
            in
            let phys_id = Value.int (Table.field (filesys ctx) fs "phys_id") in
            let pred =
              Pred.conj
                [ Pred.eq_int "users_id" users_id;
                  Pred.eq_int "filsys_id" filsys_id ]
            in
            (match Table.select_one (nfsquota ctx) pred with
            | None -> Error Mr_err.no_match
            | Some (_, old) ->
                let old_quota =
                  Value.int (Table.field (nfsquota ctx) old "quota")
                in
                ignore (Table.delete (nfsquota ctx) pred);
                adjust_allocation ctx phys_id (-old_quota);
                Ok [])
        | _ -> Error Mr_err.args);
  }

let queries =
  [
    q_get_filesys_by_label; q_get_filesys_by_machine;
    q_get_filesys_by_nfsphys; q_get_filesys_by_group; q_add_filesys;
    q_update_filesys; q_delete_filesys; q_get_all_nfsphys; q_get_nfsphys;
    q_add_nfsphys; q_update_nfsphys; q_adjust_nfsphys_allocation;
    q_delete_nfsphys; q_get_nfs_quota; q_get_nfs_quotas_by_partition;
    q_add_nfs_quota; q_update_nfs_quota; q_delete_nfs_quota;
  ]
